package group

import (
	"math/rand"
	"testing"

	"repro/internal/crypto/field"
)

func randPoint(rng *rand.Rand) Point { return BaseMul(field.MustRandom(rng)) }

// TestDoubleMulAPI: the public entry points agree with the reference
// composition on whichever dispatch path this architecture selected.
func TestDoubleMulAPI(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 10; i++ {
		k1, k2 := field.MustRandom(rng), field.MustRandom(rng)
		p1, p2 := randPoint(rng), randPoint(rng)
		if got := DoubleMul(k1, p1, k2, p2); !got.Equal(p1.Mul(k1).Add(p2.Mul(k2))) {
			t.Fatal("DoubleMul mismatch")
		}
		if got := BaseDoubleMul(k1, k2, p2); !got.Equal(BaseMul(k1).Add(p2.Mul(k2))) {
			t.Fatal("BaseDoubleMul mismatch")
		}
	}
}

func TestHashToPointMemoized(t *testing.T) {
	a := HashToPoint("memo-test", []byte("payload"))
	b := HashToPoint("memo-test", []byte("payload"))
	if !a.Equal(b) || !a.Equal(hashToPointUncached("memo-test", []byte("payload"))) {
		t.Fatal("memoized hash-to-point diverges from uncached")
	}
	if HashToPoint("memo-test-2", []byte("payload")).Equal(a) {
		t.Fatal("domain not part of the memo key")
	}
}

// The cost of one double-scalar multiplication: two standard-library
// ScalarMults and one addition.
func BenchmarkDoubleMulDispatch(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	k1, k2 := field.MustRandom(rng), field.MustRandom(rng)
	p1, p2 := randPoint(rng), randPoint(rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = DoubleMul(k1, p1, k2, p2)
	}
}

func BenchmarkBaseMul(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	k := field.MustRandom(rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = BaseMul(k)
	}
}
