package pedersen

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/crypto/field"
	"repro/internal/crypto/group"
	"repro/internal/crypto/poly"
)

func testRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func commitPair(t *testing.T, r *rand.Rand, deg int) (poly.Poly, poly.Poly, Commitment) {
	t.Helper()
	a, err := poly.Random(r, deg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := poly.Random(r, deg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Commit(a, b)
	if err != nil {
		t.Fatal(err)
	}
	return a, b, c
}

func TestVerifyShareAccepts(t *testing.T) {
	r := testRand(1)
	const deg, n = 3, 10
	a, b, c := commitPair(t, r, deg)
	for i := 0; i < n; i++ {
		if !c.VerifyShare(i, a.Eval(poly.X(i)), b.Eval(poly.X(i))) {
			t.Fatalf("share %d rejected", i)
		}
	}
}

func TestVerifyShareRejectsTampered(t *testing.T) {
	r := testRand(2)
	a, b, c := commitPair(t, r, 3)
	av := a.Eval(poly.X(0)).Add(field.One())
	if c.VerifyShare(0, av, b.Eval(poly.X(0))) {
		t.Fatal("tampered A-share accepted")
	}
	bv := b.Eval(poly.X(0)).Add(field.One())
	if c.VerifyShare(0, a.Eval(poly.X(0)), bv) {
		t.Fatal("tampered B-share accepted")
	}
}

func TestCommitRejectsDegreeMismatch(t *testing.T) {
	r := testRand(3)
	a, _ := poly.Random(r, 3)
	b, _ := poly.Random(r, 2)
	if _, err := Commit(a, b); err == nil {
		t.Fatal("degree mismatch accepted")
	}
}

func TestBytesRoundTrip(t *testing.T) {
	r := testRand(4)
	_, _, c := commitPair(t, r, 4)
	got, err := FromBytes(c.Bytes(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(c) {
		t.Fatal("round trip mismatch")
	}
	if _, err := FromBytes(c.Bytes(), 5); err == nil {
		t.Fatal("accepted wrong degree")
	}
	if _, err := FromBytes(c.Bytes()[:10], 4); err == nil {
		t.Fatal("accepted truncation")
	}
}

// TestHiding demonstrates perfect hiding: two different value polynomials
// can yield the same commitment under suitable blinding — here we verify
// the homomorphic structure that makes the information-theoretic argument
// go through (commitment of a+Δ with blinding b-Δ·log_h(g)… is out of scope
// without the dlog; instead we check commitments of equal polynomials with
// different blinding differ, i.e. blinding actually enters).
func TestBlindingEnters(t *testing.T) {
	r := testRand(5)
	a, _ := poly.Random(r, 2)
	b1, _ := poly.Random(r, 2)
	b2, _ := poly.Random(r, 2)
	c1, _ := Commit(a, b1)
	c2, _ := Commit(a, b2)
	if c1.Equal(c2) {
		t.Fatal("different blinding produced equal commitments")
	}
}

func TestEvalMatchesShareCheck(t *testing.T) {
	r := testRand(6)
	a, b, c := commitPair(t, r, 3)
	x := field.FromUint64(7)
	// g^{A(7)} h^{B(7)} must equal c.Eval(7).
	lhs := group.BaseMul(a.Eval(x)).Add(group.SecondGenerator().Mul(b.Eval(x)))
	if !lhs.Equal(c.Eval(7)) {
		t.Fatal("Eval(7) is not the commitment to (A(7), B(7))")
	}
	if !c.VerifyShare(6, a.Eval(x), b.Eval(x)) { // party 6 has X=7
		t.Fatal("share check failed at x=7")
	}
}

// evalPowers is the reference for Eval: Σ x^k·c_k with one full scalar
// multiplication per coefficient, the loop Eval ran before it became a
// Horner chain.
func evalPowers(c Commitment, x uint64) group.Point {
	acc := group.Point{}
	pow := field.One()
	for _, ck := range c.C {
		acc = acc.Add(ck.Mul(pow))
		pow = pow.Mul(field.FromUint64(x))
	}
	return acc
}

// TestEvalMatchesPowerSum: the Horner evaluation is the power sum at every
// degree and evaluation point the protocols use, on both sides of
// MulSmall's 8-bit fallback, and when coefficients are the identity.
func TestEvalMatchesPowerSum(t *testing.T) {
	r := testRand(8)
	xs := []uint64{255, 256, 257, 1 << 20}
	for x := uint64(0); x <= 41; x++ {
		xs = append(xs, x)
	}
	check := func(name string, c Commitment) {
		t.Helper()
		for _, x := range xs {
			if !c.Eval(x).Equal(evalPowers(c, x)) {
				t.Fatalf("%s: Eval(%d) differs from the power sum", name, x)
			}
		}
	}
	for deg := 0; deg <= 5; deg++ {
		_, _, c := commitPair(t, r, deg)
		check(fmt.Sprintf("degree %d", deg), c)
	}
	_, _, c := commitPair(t, r, 3)
	for k := range c.C {
		holed := Commitment{C: append([]group.Point(nil), c.C...)}
		holed.C[k] = group.Point{}
		check(fmt.Sprintf("identity at %d", k), holed)
	}
	check("all identity", Commitment{C: make([]group.Point, 3)})
	// A leading coefficient that cancels against the next one on the way
	// down: (−c_0)·1 + c_0 passes through the identity mid-chain.
	check("cancelling", Commitment{C: []group.Point{c.C[0], c.C[0].Neg()}})
}

// TestVerifyShareAcrossFallback: shares of parties on both sides of the
// 8-bit boundary (x = i+1 = 255, 256, 257) verify, and a share checked
// against the neighbouring index does not.
func TestVerifyShareAcrossFallback(t *testing.T) {
	r := testRand(9)
	a, b, c := commitPair(t, r, 2)
	for _, i := range []int{254, 255, 256} {
		if !c.VerifyShare(i, a.Eval(poly.X(i)), b.Eval(poly.X(i))) {
			t.Fatalf("share %d rejected", i)
		}
		if c.VerifyShare(i+1, a.Eval(poly.X(i)), b.Eval(poly.X(i))) {
			t.Fatalf("share %d accepted at index %d", i, i+1)
		}
	}
}

var benchOK bool

// BenchmarkVerifyShare is the AVSS share check at the polynomial degrees of
// n = 4, 7 and 16.
func BenchmarkVerifyShare(b *testing.B) {
	for _, f := range []int{1, 2, 5} {
		b.Run(fmt.Sprintf("f%d", f), func(b *testing.B) {
			r := testRand(int64(f))
			pa, _ := poly.Random(r, f)
			pb, _ := poly.Random(r, f)
			c, err := Commit(pa, pb)
			if err != nil {
				b.Fatal(err)
			}
			i := 2 * f // a mid-range party of n = 3f+1
			sa, sb := pa.Eval(poly.X(i)), pb.Eval(poly.X(i))
			b.ReportAllocs()
			for b.Loop() {
				benchOK = c.VerifyShare(i, sa, sb)
			}
			if !benchOK {
				b.Fatal("share rejected")
			}
		})
	}
}

func TestEqual(t *testing.T) {
	r := testRand(7)
	_, _, c1 := commitPair(t, r, 2)
	_, _, c2 := commitPair(t, r, 2)
	if c1.Equal(c2) {
		t.Fatal("independent commitments equal")
	}
	if !c1.Equal(c1) {
		t.Fatal("commitment not equal to itself")
	}
}
