package pki

// The signature book: each party records the (signer, H(msg), signature)
// triples it signed or verified, and runs sig.Verify only on a miss. Sound:
// verification is deterministic and board keys are fixed after setup. Only
// valid signatures are recorded, so a bad one is verified, and rejected,
// every time. Unlike vcache and scache the book is per party, never shared.

import (
	"crypto/sha256"
	"errors"
	"sync/atomic"

	"repro/internal/crypto/memo"
	"repro/internal/crypto/sig"
)

// bookCap outlives an instance's quorum rounds (a VBA view at n = 16 books
// ≈ 1,000 acks per party: 4 stages × n leaders × n−f); full, it is ≈ 1 MiB.
const bookCap = 1 << 13

type bookKey struct {
	signer int
	msg    [sha256.Size]byte
	sig    [sig.Size]byte
}

type book struct {
	memo *memo.Map[bookKey, struct{}]
	cold atomic.Int64 // sig.Verify calls, i.e. misses
}

func newBook() *book { return &book{memo: memo.New[bookKey, struct{}](bookCap)} }

var errBadSignature = errors.New("pki: bad signature")

func entry(signer int, msg []byte, s sig.Signature) bookKey {
	e := bookKey{signer: signer, msg: sha256.Sum256(msg)}
	copy(e.sig[:], s.Bytes())
	return e
}

// Sign signs msg and records the signature, so the party never verifies
// its own signature when it comes back.
func (k *Keyring) Sign(msg []byte) sig.Signature {
	s := k.Sig.Sign(msg)
	k.book.memo.Put(entry(k.Self, msg, s), struct{}{})
	return s
}

func (k *Keyring) verify(signer int, msg []byte, s sig.Signature) bool {
	_, _, err := k.book.memo.Do(entry(signer, msg, s), func() (struct{}, error) {
		k.book.cold.Add(1)
		if !sig.Verify(k.Board.Parties[signer].Sig, msg, s) {
			return struct{}{}, errBadSignature
		}
		return struct{}{}, nil
	})
	return err == nil
}

// Collect adds raw to q as from's signature on msg if the book finds it
// valid, and reports whether it is; a repeated index counts once.
func (k *Keyring) Collect(q *sig.Quorum, from int, msg, raw []byte) bool {
	s, err := sig.SignatureFromBytes(raw)
	if err != nil || !k.verify(from, msg, s) {
		return false
	}
	q.Add(from, s)
	return true
}

// VerifyQuorum checks, through the book, that q holds at least threshold
// valid signatures on msg from distinct parties of the board.
func (k *Keyring) VerifyQuorum(msg []byte, q *sig.Quorum, threshold int) bool {
	if q == nil || q.Len() < threshold || len(q.Sigs) != len(q.Indices) {
		return false
	}
	seen := make(map[int]bool, q.Len())
	for i, idx := range q.Indices {
		if idx < 0 || idx >= k.Board.N() || seen[idx] || !k.verify(idx, msg, q.Sigs[i]) {
			return false
		}
		seen[idx] = true
	}
	return true
}

// SigVerifies counts this party's cryptographic verifications (book misses).
func (k *Keyring) SigVerifies() int64 { return k.book.cold.Load() }
