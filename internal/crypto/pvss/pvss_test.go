package pvss

import (
	"math/rand"
	"testing"

	"repro/internal/crypto/field"
	"repro/internal/crypto/pairing"
)

func testRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

type fixture struct {
	p   Params
	eks []EncKey
	dks []DecKey
	sks []SigKey
	vks []pairing.G1
}

func setup(t *testing.T, r *rand.Rand, n, degree int) *fixture {
	t.Helper()
	fx := &fixture{p: Params{N: n, Degree: degree}}
	for i := 0; i < n; i++ {
		ek, dk, err := GenerateEncKey(r)
		if err != nil {
			t.Fatal(err)
		}
		sk, err := GenerateSigKey(r)
		if err != nil {
			t.Fatal(err)
		}
		fx.eks = append(fx.eks, ek)
		fx.dks = append(fx.dks, dk)
		fx.sks = append(fx.sks, sk)
		fx.vks = append(fx.vks, sk.VK)
	}
	return fx
}

func TestDealVerifyReconstruct(t *testing.T) {
	r := testRand(1)
	fx := setup(t, r, 7, 4)
	secret := field.MustRandom(r)
	s, err := Deal(fx.p, fx.eks, 2, fx.sks[2], secret, r)
	if err != nil {
		t.Fatal(err)
	}
	if !VrfyScript(fx.p, fx.eks, fx.vks, s) {
		t.Fatal("honest script rejected")
	}
	shares := make(map[int]pairing.G2)
	for i := 0; i < fx.p.Degree+1; i++ {
		sh := GetShare(i, fx.dks[i], s)
		if !VrfyShare(i, sh, s) {
			t.Fatalf("share %d rejected", i)
		}
		shares[i] = sh
	}
	got, err := AggShares(fx.p, shares)
	if err != nil {
		t.Fatal(err)
	}
	if !VrfySecret(got, s) {
		t.Fatal("recovered secret failed VrfySecret")
	}
	want := pairing.G2Generator().Exp(secret)
	if !got.Equal(want) {
		t.Fatal("recovered secret != ĥ1^secret")
	}
}

func TestAggregationRecoversSum(t *testing.T) {
	r := testRand(2)
	const n, deg = 7, 4
	fx := setup(t, r, n, deg)
	secrets := make([]field.Scalar, 3)
	var agg *Script
	for d := 0; d < 3; d++ {
		secrets[d] = field.MustRandom(r)
		s, err := Deal(fx.p, fx.eks, d, fx.sks[d], secrets[d], r)
		if err != nil {
			t.Fatal(err)
		}
		if agg == nil {
			agg = s
		} else {
			agg, err = AggScripts(agg, s)
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	if !VrfyScript(fx.p, fx.eks, fx.vks, agg) {
		t.Fatal("aggregated script rejected")
	}
	if agg.WeightCount() != 3 {
		t.Fatalf("weight count %d, want 3", agg.WeightCount())
	}
	shares := make(map[int]pairing.G2)
	for i := 0; i < deg+1; i++ {
		sh := GetShare(i, fx.dks[i], agg)
		if !VrfyShare(i, sh, agg) {
			t.Fatalf("aggregated share %d rejected", i)
		}
		shares[i] = sh
	}
	got, err := AggShares(fx.p, shares)
	if err != nil {
		t.Fatal(err)
	}
	sum := field.Zero()
	for _, s := range secrets {
		sum = sum.Add(s)
	}
	if !got.Equal(pairing.G2Generator().Exp(sum)) {
		t.Fatal("aggregated secret != ĥ1^{Σ secrets} (verifiable aggregation broken)")
	}
}

func TestVrfyScriptRejectsForgedTag(t *testing.T) {
	r := testRand(3)
	fx := setup(t, r, 4, 2)
	s, err := Deal(fx.p, fx.eks, 1, fx.sks[1], field.MustRandom(r), r)
	if err != nil {
		t.Fatal(err)
	}
	// Claim the contribution came from party 0 instead.
	s.W[0], s.W[1] = 1, 0
	s.C[0], s.C[1] = s.C[1], pairing.G1{}
	s.Sg[0], s.Sg[1] = s.Sg[1], SoK{}
	if VrfyScript(fx.p, fx.eks, fx.vks, s) {
		t.Fatal("script with reassigned dealer tag accepted")
	}
}

func TestVrfyScriptRejectsWrongDegree(t *testing.T) {
	r := testRand(4)
	fx := setup(t, r, 7, 2)
	// Deal with a higher degree than the verifier expects.
	high := Params{N: 7, Degree: 4}
	s, err := Deal(high, fx.eks, 0, fx.sks[0], field.MustRandom(r), r)
	if err != nil {
		t.Fatal(err)
	}
	// Truncate coefficient commitments to masquerade as degree 2.
	s.F = s.F[:3]
	if VrfyScript(fx.p, fx.eks, fx.vks, s) {
		t.Fatal("degree-4 evaluations accepted as degree-2 script")
	}
}

func TestVrfyScriptRejectsTamperedShare(t *testing.T) {
	r := testRand(5)
	fx := setup(t, r, 4, 2)
	s, err := Deal(fx.p, fx.eks, 0, fx.sks[0], field.MustRandom(r), r)
	if err != nil {
		t.Fatal(err)
	}
	s.Y[2] = s.Y[2].Mul(pairing.G2Generator())
	if VrfyScript(fx.p, fx.eks, fx.vks, s) {
		t.Fatal("tampered encrypted share accepted")
	}
}

func TestVrfyShareRejectsWrongShare(t *testing.T) {
	r := testRand(6)
	fx := setup(t, r, 4, 2)
	s, _ := Deal(fx.p, fx.eks, 0, fx.sks[0], field.MustRandom(r), r)
	sh := GetShare(1, fx.dks[1], s)
	if VrfyShare(2, sh, s) {
		t.Fatal("share verified at wrong index")
	}
	if VrfyShare(-1, sh, s) || VrfyShare(99, sh, s) {
		t.Fatal("out-of-range index accepted")
	}
}

func TestAggSharesNeedsThreshold(t *testing.T) {
	r := testRand(7)
	fx := setup(t, r, 7, 4)
	s, _ := Deal(fx.p, fx.eks, 0, fx.sks[0], field.MustRandom(r), r)
	shares := make(map[int]pairing.G2)
	for i := 0; i < 4; i++ { // one short of degree+1
		shares[i] = GetShare(i, fx.dks[i], s)
	}
	if _, err := AggShares(fx.p, shares); err == nil {
		t.Fatal("reconstruction with too few shares succeeded")
	}
}

func TestScriptBytesRoundTrip(t *testing.T) {
	r := testRand(8)
	fx := setup(t, r, 7, 4)
	a, _ := Deal(fx.p, fx.eks, 1, fx.sks[1], field.MustRandom(r), r)
	b, _ := Deal(fx.p, fx.eks, 5, fx.sks[5], field.MustRandom(r), r)
	agg, err := AggScripts(a, b)
	if err != nil {
		t.Fatal(err)
	}
	enc := agg.Bytes()
	got, err := FromBytes(fx.p, enc)
	if err != nil {
		t.Fatal(err)
	}
	if !VrfyScript(fx.p, fx.eks, fx.vks, got) {
		t.Fatal("decoded script invalid")
	}
	if _, err := FromBytes(fx.p, enc[:len(enc)-1]); err == nil {
		t.Fatal("accepted truncated script")
	}
	if _, err := FromBytes(fx.p, append(enc, 0)); err == nil {
		t.Fatal("accepted padded script")
	}
}

func TestDealValidatesArguments(t *testing.T) {
	r := testRand(9)
	fx := setup(t, r, 4, 2)
	if _, err := Deal(Params{N: 0, Degree: 0}, nil, 0, fx.sks[0], field.One(), r); err == nil {
		t.Fatal("accepted invalid params")
	}
	if _, err := Deal(fx.p, fx.eks, -1, fx.sks[0], field.One(), r); err == nil {
		t.Fatal("accepted negative dealer")
	}
	if _, err := Deal(fx.p, fx.eks[:2], 0, fx.sks[0], field.One(), r); err == nil {
		t.Fatal("accepted short key list")
	}
}

// TestPredictionGameShape mirrors the Appendix B game: with only `degree`
// shares (one below threshold) the adversary's interpolation cannot land on
// the committed secret except by luck.
func TestPredictionGameShape(t *testing.T) {
	r := testRand(10)
	fx := setup(t, r, 7, 4)
	secret := field.MustRandom(r)
	s, _ := Deal(fx.p, fx.eks, 0, fx.sks[0], secret, r)
	shares := make(map[int]pairing.G2)
	for i := 0; i < 4; i++ {
		shares[i] = GetShare(i, fx.dks[i], s)
	}
	// The adversary "guesses" by padding with a fabricated share.
	shares[6] = pairing.G2Generator()
	got, err := AggShares(fx.p, shares)
	if err != nil {
		t.Fatal(err)
	}
	if got.Equal(pairing.G2Generator().Exp(secret)) {
		t.Fatal("adversary with sub-threshold shares recovered the secret")
	}
}

func TestDealtBy(t *testing.T) {
	for _, c := range []struct {
		name string
		w    []uint32
		i    int
		want bool
	}{
		{"unit at dealer", []uint32{0, 1, 0, 0}, 1, true},
		{"unit at another dealer", []uint32{0, 1, 0, 0}, 2, false},
		{"weight 2 at dealer", []uint32{0, 2, 0, 0}, 1, false},
		{"second contributor", []uint32{0, 1, 1, 0}, 1, false},
		{"all weights zero", []uint32{0, 0, 0, 0}, 1, false},
		{"dealer out of range", []uint32{0, 0, 0, 0}, 4, false},
		{"negative dealer", []uint32{0, 0, 0, 0}, -1, false},
	} {
		if got := (&Script{W: c.w}).DealtBy(c.i); got != c.want {
			t.Errorf("%s: DealtBy(%d) on %v = %v, want %v", c.name, c.i, c.w, got, c.want)
		}
	}
}

func TestDistinct(t *testing.T) {
	for _, c := range []struct {
		name string
		w    []uint32
		k    int
		want bool
	}{
		{"exactly k ones", []uint32{1, 0, 1, 1}, 3, true},
		{"more than k ones", []uint32{1, 1, 1, 1}, 3, true},
		{"fewer than k ones", []uint32{1, 0, 0, 1}, 3, false},
		{"a weight of 2", []uint32{1, 2, 1, 0}, 3, false},
		{"a weight of 2 with k ones besides", []uint32{1, 2, 1, 1}, 3, false},
		{"all weights zero", []uint32{0, 0, 0, 0}, 1, false},
		{"all weights zero, k = 0", []uint32{0, 0, 0, 0}, 0, true},
	} {
		if got := (&Script{W: c.w}).Distinct(c.k); got != c.want {
			t.Errorf("%s: Distinct(%d) on %v = %v, want %v", c.name, c.k, c.w, got, c.want)
		}
	}
}
