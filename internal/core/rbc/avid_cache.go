package rbc

import (
	"crypto/sha256"
	"errors"

	"repro/internal/crypto/memo"
	"repro/internal/crypto/merkle"
	"repro/internal/crypto/rs"
)

// AVID delivery re-encodes the decoded payload and rebuilds the Merkle tree
// to verify it against the dispersal root — n−k parity rows plus O(n) hashes
// per delivering party. The verification is a pure function of
// (k, n, root, payload), so when n simulated parties deliver the same
// broadcast the work is identical n times over. roots remembers payloads
// that already verified against a root; only successful verifications are
// stored, so a hit can never admit an inconsistent dispersal. The memo is
// process-wide (sharing across simulated parties is the point) and bounded,
// like every memo.Map.
type rootKey struct {
	k, n   int
	root   merkle.Root
	digest [sha256.Size]byte
}

var roots = memo.New[rootKey, struct{}](4096)

var errRootMismatch = errors.New("rbc: payload does not re-encode to the root")

// verifyRoot reports whether value re-encodes under codec to the chunk set
// behind root, consulting the dedup memo first. Hit/miss traffic is
// exported through rs.Stats (TreeHits/TreeBuilds).
func verifyRoot(codec *rs.Codec, k, n int, root merkle.Root, value []byte) bool {
	key := rootKey{k: k, n: n, root: root, digest: sha256.Sum256(value)}
	_, ran, err := roots.Do(key, func() (struct{}, error) {
		chunks, err := codec.Encode(value)
		if err != nil {
			return struct{}{}, err
		}
		tree, err := merkle.Build(chunks)
		if err != nil {
			return struct{}{}, err
		}
		if tree.Root() != root {
			return struct{}{}, errRootMismatch
		}
		return struct{}{}, nil
	})
	if ran {
		rs.NoteTreeBuild()
	} else {
		rs.NoteTreeHit()
	}
	return err == nil
}

// seedRoot records a (root, value) pair the caller has just proven by
// construction — the sender builds the tree itself, so its own dispersal
// never needs re-verifying.
func seedRoot(k, n int, root merkle.Root, value []byte) {
	roots.Put(rootKey{k: k, n: n, root: root, digest: sha256.Sum256(value)}, struct{}{})
}
