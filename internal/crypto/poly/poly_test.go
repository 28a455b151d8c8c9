package poly

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/crypto/field"
)

func testRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestEvalHorner(t *testing.T) {
	// p(x) = 3 + 2x + x²
	p := New(field.FromUint64(3), field.FromUint64(2), field.FromUint64(1))
	if got := p.Eval(field.FromUint64(2)); !got.Equal(field.FromUint64(11)) {
		t.Fatalf("p(2) = %v, want 11", got)
	}
	if got := p.Secret(); !got.Equal(field.FromUint64(3)) {
		t.Fatalf("p(0) = %v, want 3", got)
	}
}

func TestSharesReconstructSecret(t *testing.T) {
	r := testRand(1)
	for deg := 0; deg <= 6; deg++ {
		p, err := Random(r, deg)
		if err != nil {
			t.Fatal(err)
		}
		shares := p.Shares(deg + 1)
		got, err := InterpolateAt(shares, field.Zero())
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(p.Secret()) {
			t.Fatalf("degree %d: recovered %v, want %v", deg, got, p.Secret())
		}
	}
}

func TestAnySubsetReconstructs(t *testing.T) {
	r := testRand(2)
	const deg, n = 3, 10
	p, err := Random(r, deg)
	if err != nil {
		t.Fatal(err)
	}
	all := p.Shares(n)
	for trial := 0; trial < 30; trial++ {
		perm := r.Perm(n)[:deg+1]
		sub := make([]Share, 0, deg+1)
		for _, i := range perm {
			sub = append(sub, all[i])
		}
		got, err := InterpolateAt(sub, field.Zero())
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(p.Secret()) {
			t.Fatalf("subset %v failed", perm)
		}
	}
}

func TestInterpolateRejectsDuplicates(t *testing.T) {
	shares := []Share{{Index: 1, Value: field.One()}, {Index: 1, Value: field.Zero()}}
	if _, err := InterpolateAt(shares, field.Zero()); err == nil {
		t.Fatal("accepted duplicate index")
	}
	if _, err := Interpolate(shares); err == nil {
		t.Fatal("Interpolate accepted duplicate index")
	}
}

func TestInterpolateRecoversCoefficients(t *testing.T) {
	r := testRand(3)
	for trial := 0; trial < 20; trial++ {
		deg := r.Intn(6)
		p, err := Random(r, deg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Interpolate(p.Shares(deg + 1))
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k <= deg; k++ {
			if !got.Coeff(k).Equal(p.Coeff(k)) {
				t.Fatalf("trial %d: coefficient %d mismatch", trial, k)
			}
		}
	}
}

func TestRandomWithSecret(t *testing.T) {
	r := testRand(4)
	secret := field.FromUint64(42)
	p, err := RandomWithSecret(r, 5, secret)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Secret().Equal(secret) {
		t.Fatal("secret not embedded")
	}
}

func TestAddPointwiseProperty(t *testing.T) {
	r := testRand(5)
	f := func(xb [32]byte) bool {
		p, _ := Random(r, 4)
		q, _ := Random(r, 2)
		x := field.FromBytes(xb[:])
		return p.Add(q).Eval(x).Equal(p.Eval(x).Add(q.Eval(x)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestSecrecyOfShamir checks the information-theoretic property underlying
// AVSS secrecy: deg shares of a degree-deg polynomial are consistent with
// any candidate secret.
func TestSecrecyOfShamir(t *testing.T) {
	r := testRand(6)
	const deg = 4
	p, err := Random(r, deg)
	if err != nil {
		t.Fatal(err)
	}
	partial := p.Shares(deg) // only deg shares: one short of threshold
	// For an arbitrary fake secret, there exists a degree-deg polynomial
	// matching the partial shares and the fake secret.
	fake := field.FromUint64(123456789)
	pts := append([]Share(nil), partial...)
	pts = append(pts, Share{Index: -1, Value: fake}) // X(-1) = 0, the secret slot
	q, err := Interpolate(pts)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Secret().Equal(fake) {
		t.Fatal("could not extend partial shares to fake secret")
	}
	for _, sh := range partial {
		if !q.Eval(X(sh.Index)).Equal(sh.Value) {
			t.Fatal("extension does not match observed shares")
		}
	}
}

func TestLagrangeCoeffsSumToOneAtZero(t *testing.T) {
	// Σ λ_i = 1 when interpolating the constant polynomial.
	xs := []field.Scalar{X(0), X(3), X(7), X(9)}
	coeffs, err := LagrangeCoeffs(xs, field.Zero())
	if err != nil {
		t.Fatal(err)
	}
	sum := field.Zero()
	for _, c := range coeffs {
		sum = sum.Add(c)
	}
	if !sum.Equal(field.One()) {
		t.Fatalf("Σλ = %v, want 1", sum)
	}
}

func TestInterpolateAtArbitraryPoint(t *testing.T) {
	r := testRand(7)
	p, err := Random(r, 5)
	if err != nil {
		t.Fatal(err)
	}
	at := field.FromUint64(999)
	got, err := InterpolateAt(p.Shares(6), at)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(p.Eval(at)) {
		t.Fatal("InterpolateAt mismatch")
	}
}

func TestEvalMatrixMatchesLagrangeCoeffs(t *testing.T) {
	xs := []field.Scalar{X(1), X(3), X(4), X(8)}
	ats := []field.Scalar{field.Zero(), X(0), X(3), X(9), field.FromUint64(777)}
	rows, err := EvalMatrix(xs, ats)
	if err != nil {
		t.Fatal(err)
	}
	for r, at := range ats {
		want, err := LagrangeCoeffs(xs, at)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if !rows[r][j].Equal(want[j]) {
				t.Fatalf("row %d col %d: EvalMatrix diverges from LagrangeCoeffs", r, j)
			}
		}
	}
}

func TestEvalMatrixOnBasisPointIsUnitRow(t *testing.T) {
	xs := []field.Scalar{X(0), X(2), X(5)}
	rows, err := EvalMatrix(xs, []field.Scalar{X(2)})
	if err != nil {
		t.Fatal(err)
	}
	for j := range xs {
		want := field.Zero()
		if j == 1 {
			want = field.One()
		}
		if !rows[0][j].Equal(want) {
			t.Fatalf("on-basis row not a unit vector: col %d = %v", j, rows[0][j])
		}
	}
}

func TestEvalMatrixExtendsPolynomial(t *testing.T) {
	r := testRand(11)
	p, err := Random(r, 3)
	if err != nil {
		t.Fatal(err)
	}
	xs := []field.Scalar{X(0), X(1), X(2), X(3)}
	ats := []field.Scalar{X(4), X(5), X(6)}
	rows, err := EvalMatrix(xs, ats)
	if err != nil {
		t.Fatal(err)
	}
	for ri, at := range ats {
		acc := field.Zero()
		for j := 0; j < 4; j++ {
			acc = acc.Add(rows[ri][j].Mul(p.Eval(xs[j])))
		}
		if !acc.Equal(p.Eval(at)) {
			t.Fatalf("extension row %d does not reproduce p(at)", ri)
		}
	}
}

func TestEvalMatrixRejectsDuplicates(t *testing.T) {
	if _, err := EvalMatrix([]field.Scalar{X(1), X(1)}, []field.Scalar{X(0)}); err == nil {
		t.Fatal("accepted duplicate basis points")
	}
	if _, err := EvalMatrix(nil, []field.Scalar{X(0)}); err == nil {
		t.Fatal("accepted empty basis")
	}
}

// sumElem is the scalar field's additive group written multiplicatively —
// the smallest Elem whose exponent arithmetic CombineAtZero can be checked
// against directly.
type sumElem struct{ v field.Scalar }

func (a sumElem) Mul(b sumElem) sumElem      { return sumElem{a.v.Add(b.v)} }
func (a sumElem) Exp(k field.Scalar) sumElem { return sumElem{a.v.Mul(k)} }

// TestCombineAtZeroUsesLowestIndices: the combine recovers p(0) from the
// degree+1 lowest-indexed shares alone, whatever the higher ones hold, and
// refuses fewer than degree+1 shares.
func TestCombineAtZeroUsesLowestIndices(t *testing.T) {
	p, err := Random(testRand(7), 2)
	if err != nil {
		t.Fatal(err)
	}
	shares := map[int]sumElem{}
	for _, sh := range p.Shares(6) {
		shares[sh.Index] = sumElem{sh.Value}
	}
	shares[5] = sumElem{field.One()} // beyond the chosen subset
	got, err := CombineAtZero(shares, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !got.v.Equal(p.Secret()) {
		t.Fatalf("combined %v, want %v", got.v, p.Secret())
	}
	delete(shares, 0)
	shares[1] = sumElem{field.One()} // now inside it
	if got, _ := CombineAtZero(shares, 2); got.v.Equal(p.Secret()) {
		t.Fatal("a corrupted share among the lowest indices went unnoticed")
	}
	if _, err := CombineAtZero(map[int]sumElem{0: {}, 3: {}}, 2); err == nil {
		t.Fatal("combined 2 shares of a degree-2 polynomial")
	}
}

// Shares produces shares for parties 0 … n-1.
func (p Poly) Shares(n int) []Share {
	out := make([]Share, n)
	for i := 0; i < n; i++ {
		out[i] = p.EvalShare(i)
	}
	return out
}
