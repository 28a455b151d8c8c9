// Package pki models the paper's bulletin public-key infrastructure (§3):
// before the protocol starts, every party registers its public keys —
// signature verification key, VRF verification key, PVSS encryption key, and
// PVSS tag-signing key — and all parties can read the whole board.
//
// Corrupted parties may register maliciously generated keys; tests exercise
// this (e.g. VRF key grinding) by overwriting a slot before protocols start.
package pki

import (
	"fmt"
	"io"
	"math/rand"

	"repro/internal/crypto/pairing"
	"repro/internal/crypto/pvss"
	"repro/internal/crypto/scache"
	"repro/internal/crypto/sig"
	"repro/internal/crypto/vcache"
	"repro/internal/crypto/verifypool"
	"repro/internal/crypto/vrf"
)

// Party is one slot of the bulletin board: everything publicly registered
// by one participant.
type Party struct {
	Sig     sig.PublicKey
	VRF     vrf.PublicKey
	PVSSEnc pvss.EncKey
	PVSSVK  pairing.G1 // verification key for PVSS contribution tags
}

// Board is the public bulletin: one Party per participant.
type Board struct {
	Parties []Party
}

// N returns the number of registered parties.
func (b *Board) N() int { return len(b.Parties) }

// SigKeys returns the signature verification keys in index order.
func (b *Board) SigKeys() []sig.PublicKey {
	out := make([]sig.PublicKey, len(b.Parties))
	for i, p := range b.Parties {
		out[i] = p.Sig
	}
	return out
}

// EncKeys returns the PVSS encryption keys in index order.
func (b *Board) EncKeys() []pvss.EncKey {
	out := make([]pvss.EncKey, len(b.Parties))
	for i, p := range b.Parties {
		out[i] = p.PVSSEnc
	}
	return out
}

// PVSSVKs returns the PVSS tag verification keys in index order.
func (b *Board) PVSSVKs() []pairing.G1 {
	out := make([]pairing.G1, len(b.Parties))
	for i, p := range b.Parties {
		out[i] = p.PVSSVK
	}
	return out
}

// Keyring is one party's private keys plus a reference to the board.
type Keyring struct {
	Self    int
	Sig     sig.PrivateKey
	VRF     vrf.PrivateKey
	PVSSDec pvss.DecKey
	PVSSSig pvss.SigKey
	Board   *Board

	// Verifier memoizes VRF verification verdicts. Setup hands every
	// keyring of a cluster the SAME cache, so any runtime built from the
	// rings — the single-threaded simulator or the concurrent livenet —
	// shares one dedup pool; a nil Verifier (hand-built keyrings in old
	// tests) falls back to raw verification.
	Verifier *vcache.Cache

	// Scripts memoizes PVSS script-verification verdicts the same way:
	// one cluster-wide cache (cold verifies bounded and single-flighted by
	// a shared verifypool), so the ADKG receipt path, the VBA
	// external-validity predicate and the Seeding leader/aggregate checks
	// never re-verify a script any party of the cluster has already
	// decided. A nil Scripts falls back to raw batched verification.
	Scripts *scache.Cache
}

// VerifyVRF checks that (out, pf) is party's VRF evaluation on input,
// against the key registered on the bulletin board, through the cluster's
// memoizing verifier when present.
func (k *Keyring) VerifyVRF(party int, input []byte, out vrf.Output, pf vrf.Proof) bool {
	pk := k.Board.Parties[party].VRF
	if k.Verifier == nil {
		return vrf.Verify(pk, input, out, pf)
	}
	return k.Verifier.Verify(party, pk, input, out, pf)
}

// VerifyScript checks a (possibly aggregated) PVSS script against the keys
// registered on the bulletin board, through the cluster's memoizing script
// verifier when present. Every protocol-level script check (Seeding, ADKG,
// VBA external validity) routes through here so one cluster-wide memo
// serves them all.
func (k *Keyring) VerifyScript(p pvss.Params, s *pvss.Script) bool {
	eks, vks := k.Board.EncKeys(), k.Board.PVSSVKs()
	if k.Scripts == nil {
		return pvss.VrfyScript(p, eks, vks, s)
	}
	return k.Scripts.Verify(p, eks, vks, s)
}

// VerifyScriptComposed is VerifyScript with the compositional aggregate
// fast path: parts maps dealer index → that dealer's already-verified unit
// script (see scache.VerifyComposed for the soundness argument). The ADKG
// receipt path feeds its verified contributions in, so honest aggregates
// proposed into the VBA validate by byte comparison instead of pairings.
func (k *Keyring) VerifyScriptComposed(p pvss.Params, s *pvss.Script, parts map[int]*pvss.Script) bool {
	eks, vks := k.Board.EncKeys(), k.Board.PVSSVKs()
	if k.Scripts == nil {
		return pvss.VrfyScript(p, eks, vks, s)
	}
	return k.Scripts.VerifyComposed(p, eks, vks, s, parts)
}

// SetupSeeded is Setup on a deterministic source derived from seed alone,
// so every runtime and deployment built from the same seed holds the same
// key material — the basis of comparing their decisions.
func SetupSeeded(n int, seed int64) ([]*Keyring, *Board, error) {
	return Setup(n, rand.New(rand.NewSource(seed^0x5eed)))
}

// Setup generates keys for n parties from the randomness source and
// registers all public parts on a shared board.
func Setup(n int, rng io.Reader) ([]*Keyring, *Board, error) {
	board := &Board{Parties: make([]Party, n)}
	rings := make([]*Keyring, n)
	verifier := vcache.New()
	scripts := scache.New(verifypool.New(0))
	for i := 0; i < n; i++ {
		sk, err := sig.GenerateKey(rng)
		if err != nil {
			return nil, nil, fmt.Errorf("pki: party %d signature key: %w", i, err)
		}
		vk, err := vrf.GenerateKey(rng)
		if err != nil {
			return nil, nil, fmt.Errorf("pki: party %d VRF key: %w", i, err)
		}
		ek, dk, err := pvss.GenerateEncKey(rng)
		if err != nil {
			return nil, nil, fmt.Errorf("pki: party %d PVSS enc key: %w", i, err)
		}
		tk, err := pvss.GenerateSigKey(rng)
		if err != nil {
			return nil, nil, fmt.Errorf("pki: party %d PVSS sig key: %w", i, err)
		}
		board.Parties[i] = Party{Sig: sk.PK, VRF: vk.PK, PVSSEnc: ek, PVSSVK: tk.VK}
		rings[i] = &Keyring{
			Self: i, Sig: sk, VRF: vk, PVSSDec: dk, PVSSSig: tk, Board: board,
			Verifier: verifier, Scripts: scripts,
		}
	}
	return rings, board, nil
}

// RegisterVRF overwrites party i's VRF slot — used by tests to model a
// corrupted party registering a maliciously generated (ground) key.
func (b *Board) RegisterVRF(i int, pk vrf.PublicKey) { b.Parties[i].VRF = pk }

// GrindVRFKey models the §6.1 attack: the adversary runs key generation
// `tries` times and keeps the key whose VRF evaluation on the (known,
// deterministic) seed is largest. Against Seeding-generated unpredictable
// seeds this yields no advantage — the test suite demonstrates both sides.
func GrindVRFKey(rng io.Reader, knownSeed []byte, tries int) (vrf.PrivateKey, error) {
	var best vrf.PrivateKey
	var bestOut vrf.Output
	for t := 0; t < tries; t++ {
		k, err := vrf.GenerateKey(rng)
		if err != nil {
			return vrf.PrivateKey{}, err
		}
		out, _ := k.Eval(knownSeed)
		if t == 0 || bestOut.Less(out) {
			best, bestOut = k, out
		}
	}
	return best, nil
}
