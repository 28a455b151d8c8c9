package adkg

import (
	"testing"

	"repro/internal/core/coin"
	"repro/internal/core/vba"
	"repro/internal/crypto/pairing"
	"repro/internal/crypto/poly"
	"repro/internal/harness"
)

func cfg() Config {
	return Config{VBA: vba.Config{Coin: coin.Config{GenesisNonce: []byte("adkg-test")}}}
}

type fixture struct {
	c     *harness.Cluster
	insts []*ADKG
	keys  map[int]ThresholdKey
}

func setup(t *testing.T, n, f int, seed int64, opts harness.Options) *fixture {
	t.Helper()
	c, err := harness.NewCluster(n, f, seed, opts)
	if err != nil {
		t.Fatal(err)
	}
	fx := &fixture{c: c, insts: make([]*ADKG, n), keys: make(map[int]ThresholdKey)}
	c.EachHonest(func(i int) {
		fx.insts[i] = New(c.Net.Node(i), "dkg", c.Keys[i], cfg(), func(k ThresholdKey) {
			fx.keys[i] = k
		})
	})
	return fx
}

func TestKeysConsistent(t *testing.T) {
	const n, f = 4, 1
	fx := setup(t, n, f, 1, harness.Options{})
	fx.c.EachHonest(func(i int) { fx.insts[i].Start() })
	if err := fx.c.Net.Run(200_000_000, func() bool { return len(fx.keys) == n }); err != nil {
		t.Fatal(err)
	}
	ref := fx.keys[0]
	for i, k := range fx.keys {
		if !k.GroupPK.Equal(ref.GroupPK) {
			t.Fatalf("node %d has a different group public key", i)
		}
		if len(k.PKShares) != n {
			t.Fatalf("node %d has %d pk shares", i, len(k.PKShares))
		}
	}
	if ref.Script.WeightCount() < n-f {
		t.Fatalf("agreed script has %d contributors, want ≥ %d", ref.Script.WeightCount(), n-f)
	}
}

func TestSharesMatchTranscript(t *testing.T) {
	const n, f = 4, 1
	fx := setup(t, n, f, 2, harness.Options{})
	fx.c.EachHonest(func(i int) { fx.insts[i].Start() })
	if err := fx.c.Net.Run(200_000_000, func() bool { return len(fx.keys) == n }); err != nil {
		t.Fatal(err)
	}
	// Every party's decrypted share must satisfy the public PVSS check
	// against the agreed script.
	for i, k := range fx.keys {
		if !pairingPairCheck(i, k) {
			t.Fatalf("node %d share inconsistent with transcript", i)
		}
	}
}

func pairingPairCheck(i int, k ThresholdKey) bool {
	// e(A_i, ĥ1) == e(g1, S_i)
	return pairing.Pair(k.PKShares[i], pairing.G2Generator()).
		Equal(pairing.Pair(pairing.G1Generator(), k.Share))
}

func TestThresholdEvaluationAgrees(t *testing.T) {
	const n, f = 4, 1
	fx := setup(t, n, f, 3, harness.Options{})
	fx.c.EachHonest(func(i int) { fx.insts[i].Start() })
	if err := fx.c.Net.Run(200_000_000, func() bool { return len(fx.keys) == n }); err != nil {
		t.Fatal(err)
	}
	tag := []byte("epoch-7")
	shares := make(map[int]pairing.GT)
	for i, k := range fx.keys {
		shares[i] = k.EvalShare(tag)
	}
	// Any f+1 subset combines to the same value.
	subsetA := map[int]pairing.GT{0: shares[0], 1: shares[1]}
	subsetB := map[int]pairing.GT{2: shares[2], 3: shares[3]}
	a, okA := fx.keys[0].Combine(tag, subsetA)
	b, okB := fx.keys[0].Combine(tag, subsetB)
	if !okA || !okB {
		t.Fatal("combine failed")
	}
	if !a.Equal(b) {
		t.Fatal("different share subsets combined to different evaluations")
	}
	// Distinct tags give distinct evaluations.
	sharesX := map[int]pairing.GT{0: fx.keys[0].EvalShare([]byte("epoch-8")), 1: fx.keys[1].EvalShare([]byte("epoch-8"))}
	x, _ := fx.keys[0].Combine([]byte("epoch-8"), sharesX)
	if x.Equal(a) {
		t.Fatal("evaluations collide across tags")
	}
}

func TestToleratesCrashedParties(t *testing.T) {
	const n, f = 4, 1
	byz := harness.LastFByzantine(n, f)
	fx := setup(t, n, f, 4, harness.Options{Byzantine: byz, Crash: true})
	fx.c.EachHonest(func(i int) { fx.insts[i].Start() })
	honest := n - f
	if err := fx.c.Net.Run(400_000_000, func() bool { return len(fx.keys) == honest }); err != nil {
		t.Fatal(err)
	}
	ref := fx.keys[0]
	for i, k := range fx.keys {
		if !k.GroupPK.Equal(ref.GroupPK) {
			t.Fatalf("node %d group pk mismatch with crashes", i)
		}
	}
}

func TestBadContributionRejected(t *testing.T) {
	const n, f = 4, 1
	fx := setup(t, n, f, 5, harness.Options{})
	// Garbage contribution from a corrupt party is rejected, and the DKG
	// still completes from the remaining honest contributions.
	fx.c.Net.Inject(3, 0, "dkg", []byte{msgContribution, 0, 0, 0, 3, 1, 2, 3})
	fx.c.EachHonest(func(i int) { fx.insts[i].Start() })
	if err := fx.c.Net.Run(200_000_000, func() bool { return len(fx.keys) == n }); err != nil {
		t.Fatal(err)
	}
	if fx.c.Net.Metrics().Rejected == 0 {
		t.Fatal("garbage contribution not rejected")
	}
}

// EvalShare computes this party's threshold-VUF share on a tag:
// σ_i = e(H₁(tag), S_i) ∈ GT.
func (k ThresholdKey) EvalShare(tag []byte) pairing.GT {
	return pairing.Pair(pairing.HashToG1("adkg/vuf", tag), k.Share)
}

// Combine Lagrange-interpolates f+1 shares in GT to the group evaluation
// σ = e(H₁(tag), ĥ1)^{F(0)}; ok is false when they do not interpolate.
// Nothing checks σ against the transcript: callers compare across subsets
// and parties.
func (k ThresholdKey) Combine(tag []byte, shares map[int]pairing.GT) (pairing.GT, bool) {
	acc, err := poly.CombineAtZero(shares, k.Params.Degree)
	if err != nil {
		return pairing.GT{}, false
	}
	return acc, true
}
