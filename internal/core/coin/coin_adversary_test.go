package coin

import (
	"bytes"
	"crypto/sha256"
	"math/rand"
	"testing"

	"repro/internal/crypto/vrf"
	"repro/internal/harness"
	"repro/internal/pki"
	"repro/internal/wire"
)

// TestVRFGrindingWinsOnPublicNonceButNotWithSeeding reproduces the §6.1
// attack narrative end to end. A corrupted party grinds its VRF key pair
// before registering at the PKI:
//
//   - if the coin runs on a nonce the adversary already knew at
//     registration time (a misuse of the genesis variant — the paper
//     demands the 1-time randomness be published only AFTER registration),
//     the ground key's VRF is almost always the largest, so the adversary's
//     evaluation wins the coin;
//   - with the Seeding layer (or a post-registration nonce), seeds are
//     unpredictable at grinding time and the advantage vanishes.
func TestVRFGrindingWinsOnPublicNonceButNotWithSeeding(t *testing.T) {
	const n, f = 4, 1
	const byzIdx = 3
	const runs = 6
	nonce := []byte("nonce-known-before-registration")

	// The adversary can predict the exact VRF input of the genesis-mode
	// coin instance "c": input = "coin/vrf" ‖ inst ‖ seedHash(nonce).
	predictedInput := func() []byte {
		var sd [32]byte
		copy(sd[:], seedHash(nonce))
		in := append([]byte("coin/vrf"), "c"...)
		return append(in, sd[:]...)
	}()

	runOnce := func(seed int64, genesis bool) int {
		c, err := harness.NewCluster(n, f, seed, harness.Options{})
		if err != nil {
			t.Fatal(err)
		}
		// Grind party 3's key against the predicted input (64 attempts).
		ground, err := pki.GrindVRFKey(c.Net.Node(byzIdx).RandReader(), predictedInput, 64)
		if err != nil {
			t.Fatal(err)
		}
		c.Keys[byzIdx].VRF = ground
		c.Board.RegisterVRF(byzIdx, ground.PK)

		cfg := Config{}
		if genesis {
			cfg.GenesisNonce = nonce
		}
		res := make(map[int]Result)
		for i := 0; i < n; i++ {
			i := i
			co := New(c.Net.Node(i), "c", c.Keys[i], cfg, func(r Result) { res[i] = r })
			co.Start()
		}
		if err := c.Net.Run(100_000_000, func() bool { return len(res) == n }); err != nil {
			t.Fatal(err)
		}
		wins := 0
		for _, r := range res {
			if r.Max != nil && r.Max.Leader == byzIdx {
				wins++
			}
		}
		if wins == n {
			return 1
		}
		return 0
	}

	genesisWins, seededWins := 0, 0
	for s := int64(0); s < runs; s++ {
		genesisWins += runOnce(1000+s, true)
		seededWins += runOnce(2000+s, false)
	}
	if genesisWins < runs-1 {
		t.Fatalf("ground key won only %d/%d genesis runs; the attack should nearly always succeed", genesisWins, runs)
	}
	if seededWins > runs/2 {
		t.Fatalf("ground key won %d/%d seeded runs; Seeding should neutralize grinding", seededWins, runs)
	}
}

// TestForgedCandidateRejected: a Byzantine party multicasts a Candidate
// with a fabricated VRF proof; honest parties reject it and the coin still
// terminates on honest candidates.
func TestForgedCandidateRejected(t *testing.T) {
	const n, f = 4, 1
	byz := map[int]bool{3: true}
	c, err := harness.NewCluster(n, f, 77, harness.Options{Byzantine: byz})
	if err != nil {
		t.Fatal(err)
	}
	res := make(map[int]Result)
	for i := 0; i < 3; i++ {
		i := i
		co := New(c.Net.Node(i), "c", c.Keys[i], Config{GenesisNonce: []byte("fc")}, func(r Result) { res[i] = r })
		co.Start()
	}
	// Forged candidate claiming party 0 evaluated the all-FF VRF value.
	var w wire.Writer
	w.Bool(true)
	w.Int(0)
	fake := make([]byte, vrf.OutputSize)
	for i := range fake {
		fake[i] = 0xFF
	}
	w.Bytes32(fake)
	w.Raw(make([]byte, vrf.ProofSize))
	for to := 0; to < 3; to++ {
		c.Net.Inject(3, to, "c/cd", w.Bytes())
	}
	if err := c.Net.Run(100_000_000, func() bool { return len(res) == 3 }); err != nil {
		t.Fatal(err)
	}
	if c.Net.Metrics().Rejected == 0 {
		t.Fatal("forged candidate not rejected")
	}
	for i, r := range res {
		if r.Max != nil && r.Max.Value == vrf.Output(fake) {
			t.Fatalf("node %d adopted the forged maximum", i)
		}
	}
}

// TestMalformedCoinTrafficRejected: garbage RecRequests and candidates are
// dropped without impacting termination.
func TestMalformedCoinTrafficRejected(t *testing.T) {
	const n, f = 4, 1
	c, err := harness.NewCluster(n, f, 78, harness.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := make(map[int]Result)
	for i := 0; i < n; i++ {
		i := i
		co := New(c.Net.Node(i), "c", c.Keys[i], Config{GenesisNonce: []byte("mal")}, func(r Result) { res[i] = r })
		co.Start()
	}
	c.Net.Inject(3, 0, "c/rr", []byte{})                  // short
	c.Net.Inject(3, 0, "c/rr", []byte{0, 0, 0, 99})       // out of range
	c.Net.Inject(3, 0, "c/cd", []byte{})                  // short candidate
	c.Net.Inject(3, 0, "c/cd", []byte{1, 0, 0, 0, 77, 1}) // truncated proof
	if err := c.Net.Run(100_000_000, func() bool { return len(res) == n }); err != nil {
		t.Fatal(err)
	}
	if c.Net.Metrics().Rejected < 4 {
		t.Fatalf("rejected = %d, want ≥ 4", c.Net.Metrics().Rejected)
	}
}

// TestMalformedPendingCandidateRejectedAtReceipt: a candidate whose leader
// seed is still unknown used to be parked in pendCands after parsing only
// the leader field, letting a truncated Byzantine body sit unvalidated
// until seed arrival. The full wire shape must be checked at receipt: the
// garbage is Rejected immediately and nothing is parked.
func TestMalformedPendingCandidateRejectedAtReceipt(t *testing.T) {
	const n, f = 4, 1
	byz := map[int]bool{3: true}
	c, err := harness.NewCluster(n, f, 79, harness.Options{Byzantine: byz})
	if err != nil {
		t.Fatal(err)
	}
	// Seeded mode, coins registered but NOT started: no seeds are known,
	// so a well-formed candidate would have to park.
	coins := make([]*Coin, 3)
	for i := 0; i < 3; i++ {
		coins[i] = New(c.Net.Node(i), "c", c.Keys[i], Config{}, func(Result) {})
	}
	// Truncated body: valid leader field, then garbage shorter than
	// value ‖ proof.
	var short wire.Writer
	short.Bool(true)
	short.Int(2)
	short.Raw([]byte{0xDE, 0xAD})
	c.Net.Inject(3, 0, "c/cd", short.Bytes())
	// Correct length but an undecodable proof point (bad compression tag).
	var badpf wire.Writer
	badpf.Bool(true)
	badpf.Int(2)
	badpf.Bytes32(make([]byte, vrf.OutputSize))
	pf := make([]byte, vrf.ProofSize)
	pf[0] = 0x05
	badpf.Raw(pf)
	c.Net.Inject(3, 1, "c/cd", badpf.Bytes())
	// Trailing bytes after a full candidate.
	var trail wire.Writer
	trail.Bool(true)
	trail.Int(2)
	trail.Bytes32(make([]byte, vrf.OutputSize))
	trail.Raw(make([]byte, vrf.ProofSize))
	trail.Byte(0xFF)
	c.Net.Inject(3, 2, "c/cd", trail.Bytes())
	if err := c.Net.RunAll(1_000_000); err != nil {
		t.Fatal(err)
	}
	if got := c.Net.Metrics().Rejected; got != 3 {
		t.Fatalf("rejected = %d at receipt, want 3", got)
	}
	for i, co := range coins {
		if len(co.pendCands) != 0 {
			t.Fatalf("node %d parked %d malformed candidates", i, len(co.pendCands))
		}
	}
}

// hashLen pins the seedHash output to the seed size used by deliverSeed.
func TestSeedHashLength(t *testing.T) {
	if got := len(seedHash([]byte("x"))); got != sha256.Size {
		t.Fatalf("seedHash returns %d bytes", got)
	}
}

// TestCandidateCodec pins the one Candidate wire layout: an honest
// candidate and ⊥ round-trip, and DecodeCandidate refuses every body that
// is not exactly one of them for n parties.
func TestCandidateCodec(t *testing.T) {
	const n = 4
	sk, err := vrf.GenerateKey(rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	out, pf := sk.Eval([]byte("codec"))
	honest := &Candidate{Leader: n - 1, Value: out, Proof: pf}
	body := honest.Bytes()
	got, ok := DecodeCandidate(body, n)
	if !ok || got == nil || got.Leader != honest.Leader || got.Value != honest.Value ||
		!bytes.Equal(got.Proof.Bytes(), pf.Bytes()) {
		t.Fatalf("honest candidate did not round-trip: %+v ok=%v", got, ok)
	}
	if got, ok := DecodeCandidate((*Candidate)(nil).Bytes(), n); !ok || got != nil {
		t.Fatalf("⊥ decoded to %+v ok=%v, want nil ok", got, ok)
	}
	minusOne := append([]byte(nil), body...)
	copy(minusOne[1:5], []byte{0xFF, 0xFF, 0xFF, 0xFF}) // leader −1 as a 32-bit word
	bad := map[string][]byte{
		"trailing byte after candidate": append(append([]byte(nil), body...), 0),
		"trailing byte after ⊥":         append((*Candidate)(nil).Bytes(), 0),
		"leader −1":                     minusOne,
		"leader n":                      (&Candidate{Leader: n, Value: out, Proof: pf}).Bytes(),
		"short proof":                   body[:len(body)-1],
		"empty body":                    {},
	}
	for name, b := range bad {
		if got, ok := DecodeCandidate(b, n); ok {
			t.Errorf("%s: decoded to %+v", name, got)
		}
	}
}
