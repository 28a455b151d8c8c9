package group

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/crypto/field"
)

func testRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestIdentityLaws(t *testing.T) {
	g := Generator()
	id := Point{}
	if !id.IsIdentity() {
		t.Fatal("zero value is not identity")
	}
	if !g.Add(id).Equal(g) || !id.Add(g).Equal(g) {
		t.Fatal("identity is not neutral")
	}
	if !g.Add(g.Neg()).IsIdentity() {
		t.Fatal("g + (-g) != identity")
	}
	if !g.Sub(g).IsIdentity() {
		t.Fatal("g - g != identity")
	}
}

func TestScalarMulMatchesAddition(t *testing.T) {
	g := Generator()
	acc := Point{}
	for k := uint64(0); k < 8; k++ {
		if got := g.Mul(field.FromUint64(k)); !got.Equal(acc) {
			t.Fatalf("k=%d: Mul mismatch", k)
		}
		if got := BaseMul(field.FromUint64(k)); !got.Equal(acc) {
			t.Fatalf("k=%d: BaseMul mismatch", k)
		}
		acc = acc.Add(g)
	}
}

func TestMulDistributesProperty(t *testing.T) {
	r := testRand(1)
	f := func(ab, bb [32]byte) bool {
		a, b := field.FromBytes(ab[:]), field.FromBytes(bb[:])
		lhs := BaseMul(a.Add(b))
		rhs := BaseMul(a).Add(BaseMul(b))
		return lhs.Equal(rhs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: r}); err != nil {
		t.Fatal(err)
	}
}

func TestBytesRoundTrip(t *testing.T) {
	r := testRand(2)
	for i := 0; i < 30; i++ {
		p := BaseMul(field.MustRandom(r))
		got, err := FromBytes(p.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(p) {
			t.Fatal("round trip mismatch")
		}
	}
	// Identity round trip.
	id := Point{}
	got, err := FromBytes(id.Bytes())
	if err != nil || !got.IsIdentity() {
		t.Fatal("identity round trip failed")
	}
}

func TestFromBytesRejectsGarbage(t *testing.T) {
	if _, err := FromBytes(nil); err == nil {
		t.Fatal("accepted nil")
	}
	bad := make([]byte, CompressedSize)
	bad[0] = 0x07
	if _, err := FromBytes(bad); err == nil {
		t.Fatal("accepted bad tag")
	}
	bad[0] = 0x00
	bad[5] = 1
	if _, err := FromBytes(bad); err == nil {
		t.Fatal("accepted malformed identity")
	}
}

func TestSecondGeneratorIndependent(t *testing.T) {
	h := SecondGenerator()
	if h.IsIdentity() || h.Equal(Generator()) {
		t.Fatal("second generator degenerate")
	}
	// Both parities decode consistently.
	got, err := FromBytes(h.Bytes())
	if err != nil || !got.Equal(h) {
		t.Fatal("second generator round trip failed")
	}
}

func TestHashToPointDeterministicAndOnCurve(t *testing.T) {
	p1 := HashToPoint("test", []byte("hello"))
	p2 := HashToPoint("test", []byte("hello"))
	if !p1.Equal(p2) {
		t.Fatal("hash-to-point not deterministic")
	}
	p3 := HashToPoint("test", []byte("world"))
	if p1.Equal(p3) {
		t.Fatal("distinct inputs collided")
	}
	p4 := HashToPoint("other-domain", []byte("hello"))
	if p1.Equal(p4) {
		t.Fatal("domains collided")
	}
	// On-curve: decoding its encoding must succeed.
	if _, err := FromBytes(p1.Bytes()); err != nil {
		t.Fatal(err)
	}
}

func TestDoubleViaAdd(t *testing.T) {
	g := Generator()
	if !g.Add(g).Equal(g.Mul(field.FromUint64(2))) {
		t.Fatal("doubling mismatch")
	}
}
