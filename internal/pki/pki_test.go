package pki

import (
	"math/rand"
	"testing"

	"repro/internal/crypto/field"
	"repro/internal/crypto/pairing"
	"repro/internal/crypto/pvss"
	"repro/internal/crypto/vrf"
)

func TestSetupProducesConsistentBoard(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rings, board, err := Setup(4, rng)
	if err != nil {
		t.Fatal(err)
	}
	if board.N() != 4 || len(rings) != 4 {
		t.Fatalf("n mismatch: %d/%d", board.N(), len(rings))
	}
	for i, r := range rings {
		if r.Self != i {
			t.Fatalf("ring %d has Self=%d", i, r.Self)
		}
		if r.Board != board {
			t.Fatal("ring not linked to the shared board")
		}
		// Private keys must match the registered public keys.
		if !r.Sig.PK.P.Equal(board.Parties[i].Sig.P) {
			t.Fatalf("party %d signature key mismatch", i)
		}
		if !r.VRF.PK.P.Equal(board.Parties[i].VRF.P) {
			t.Fatalf("party %d VRF key mismatch", i)
		}
	}
	// Accessors return n entries in index order.
	if len(board.SigKeys()) != 4 || len(board.EncKeys()) != 4 || len(board.PVSSVKs()) != 4 {
		t.Fatal("accessor lengths wrong")
	}
}

func TestKeysAreDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	_, board, err := Setup(4, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			if board.Parties[i].Sig.P.Equal(board.Parties[j].Sig.P) {
				t.Fatalf("parties %d and %d share a signature key", i, j)
			}
		}
	}
}

// TestGrindVRFKeyBiasesKnownSeed demonstrates the §6.1 attack that Seeding
// defeats: against a KNOWN deterministic seed, key grinding shifts the VRF
// output distribution upward; against an unpredictable seed it cannot.
func TestGrindVRFKeyBiasesKnownSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	knownSeed := []byte("publicly-known-seed")
	ground, err := GrindVRFKey(rng, knownSeed, 64)
	if err != nil {
		t.Fatal(err)
	}
	groundOut, _ := ground.Eval(knownSeed)

	// Compare with honest single-keygen outputs: the ground key should beat
	// most of them on the seed it was ground for.
	beats := 0
	const honest = 40
	for i := 0; i < honest; i++ {
		k, err := vrf.GenerateKey(rng)
		if err != nil {
			t.Fatal(err)
		}
		out, _ := k.Eval(knownSeed)
		if out.Less(groundOut) {
			beats++
		}
	}
	if beats < honest*3/4 {
		t.Fatalf("ground key beat only %d/%d honest keys on the known seed", beats, honest)
	}

	// On a fresh unpredictable seed, the same ground key is ordinary.
	fresh := []byte("seed-unknown-at-grinding-time")
	freshOut, _ := ground.Eval(fresh)
	beats = 0
	for i := 0; i < honest; i++ {
		k, _ := vrf.GenerateKey(rng)
		out, _ := k.Eval(fresh)
		if out.Less(freshOut) {
			beats++
		}
	}
	if beats > honest*3/4 {
		t.Fatalf("ground key still beats %d/%d on an unpredictable seed — grinding should not transfer", beats, honest)
	}
}

func TestRegisterVRFOverwritesSlot(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	_, board, err := Setup(4, rng)
	if err != nil {
		t.Fatal(err)
	}
	k, err := vrf.GenerateKey(rng)
	if err != nil {
		t.Fatal(err)
	}
	board.RegisterVRF(2, k.PK)
	if !board.Parties[2].VRF.P.Equal(k.PK.P) {
		t.Fatal("RegisterVRF did not take effect")
	}
}

// TestVerifyVRFSharedCache: every keyring of a cluster routes VerifyVRF
// through ONE memoizing verifier, so party j's check of a quadruple makes
// party k's identical check free; and a key re-registered on the board
// (the corrupted-registration model) never hits a stale verdict.
func TestVerifyVRFSharedCache(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	rings, board, err := Setup(4, rng)
	if err != nil {
		t.Fatal(err)
	}
	input := []byte("shared-cache-input")
	out, pf := rings[2].VRF.Eval(input)
	for i, r := range rings {
		if !r.VerifyVRF(2, input, out, pf) {
			t.Fatalf("ring %d rejected a valid evaluation", i)
		}
	}
	s := rings[0].Verifier.Stats()
	if s.Verifies != 1 || s.Hits != 3 {
		t.Fatalf("stats = %+v, want 1 cold verify + 3 shared hits", s)
	}
	// Re-register slot 2 with a ground key: the old proof must now fail,
	// not hit the cached positive verdict.
	ground, err := vrf.GenerateKey(rng)
	if err != nil {
		t.Fatal(err)
	}
	board.RegisterVRF(2, ground.PK)
	if rings[0].VerifyVRF(2, input, out, pf) {
		t.Fatal("stale cache hit after VRF key re-registration")
	}
}

// TestKeyringSharedScriptCache mirrors TestKeyringSharedCache (the VRF
// layer) for PVSS scripts: every keyring of a Setup shares ONE script
// verdict cache and compositional aggregates validate without cold work.
func TestKeyringSharedScriptCache(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rings, board, err := Setup(4, rng)
	if err != nil {
		t.Fatal(err)
	}
	p := pvss.Params{N: 4, Degree: 1}
	deal := func(dealer int) *pvss.Script {
		s, derr := pvss.Deal(p, board.EncKeys(), dealer, rings[dealer].PVSSSig, field.MustRandom(rng), rng)
		if derr != nil {
			t.Fatal(derr)
		}
		return s
	}
	s0 := deal(0)
	for i, r := range rings {
		if !r.VerifyScript(p, s0) {
			t.Fatalf("ring %d rejected a valid script", i)
		}
	}
	st := rings[0].Scripts.Stats()
	if st.Verifies != 1 || st.Hits != 3 {
		t.Fatalf("stats = %+v, want 1 cold verify + 3 shared hits", st)
	}
	// A compositional aggregate of verified parts costs no cold verify.
	s1 := deal(1)
	if !rings[1].VerifyScript(p, s1) {
		t.Fatal("second script rejected")
	}
	agg, err := pvss.AggScripts(s0, s1)
	if err != nil {
		t.Fatal(err)
	}
	parts := map[int]*pvss.Script{0: s0, 1: s1}
	if !rings[2].VerifyScriptComposed(p, agg, parts) {
		t.Fatal("compositional aggregate rejected")
	}
	st = rings[0].Scripts.Stats()
	if st.Verifies != 2 || st.Composed != 1 {
		t.Fatalf("stats = %+v, want 2 cold verifies + 1 composed", st)
	}
	bad := deal(2)
	bad.U2 = bad.U2.Mul(pairing.G2Generator().Exp(field.MustRandom(rng)))
	if rings[3].VerifyScript(p, bad) {
		t.Fatal("mauled script accepted")
	}
}
