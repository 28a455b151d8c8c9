package group

import (
	"bytes"
	"errors"
	"math/big"
	"testing"

	"repro/internal/crypto/field"
)

// fromBytesLiftX is the reference decoder FromBytes is compared against: the
// decoder as it was before the compressed tags went through
// elliptic.UnmarshalCompressed, with the square root taken by liftX.
func fromBytesLiftX(b []byte) (Point, bool) {
	if len(b) != CompressedSize {
		return Point{}, false
	}
	switch b[0] {
	case 0x00:
		return Point{}, bytes.Equal(b[1:], make([]byte, CompressedSize-1))
	case 0x02, 0x03:
		x := new(big.Int).SetBytes(b[1:])
		if x.Cmp(curveP) >= 0 {
			return Point{}, false
		}
		y, ok := liftX(x, b[0] == 0x03)
		if !ok {
			return Point{}, false
		}
		return Point{x: x, y: y}, true
	default:
		return Point{}, false
	}
}

// checkDecode fails unless FromBytes and the reference agree on b: same
// verdict (which it returns), same point, and an accepted encoding is the
// canonical one.
func checkDecode(t *testing.T, b []byte) (accepted bool) {
	t.Helper()
	want, ok := fromBytesLiftX(b)
	got, err := FromBytes(b)
	if (err == nil) != ok {
		t.Fatalf("%x: FromBytes err = %v, reference accepts = %v", b, err, ok)
	}
	if err != nil {
		if !errors.Is(err, ErrInvalidPoint) {
			t.Fatalf("%x: error %v is not ErrInvalidPoint", b, err)
		}
		return false
	}
	if !got.Equal(want) {
		t.Fatalf("%x: decoded %v, reference %v", b, got, want)
	}
	if !bytes.Equal(got.Bytes(), b) {
		t.Fatalf("%x: re-encodes as %x", b, got.Bytes())
	}
	return true
}

// encode builds the 33-byte string tag ‖ x, for x < 2²⁵⁶.
func encode(tag byte, x *big.Int) []byte {
	b := make([]byte, CompressedSize)
	b[0] = tag
	x.FillBytes(b[1:])
	return b
}

// decodeSeeds are the boundary encodings: x at and beyond the field prime, an
// x that is no abscissa, every tag next to the accepted three, a malformed
// identity, wrong lengths, and valid points of both parities.
func decodeSeeds() [][]byte {
	pMinus1 := new(big.Int).Sub(curveP, big.NewInt(1))
	pPlus1 := new(big.Int).Add(curveP, big.NewInt(1))
	allOnes := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 256), big.NewInt(1))
	nonResidue := big.NewInt(0)
	for {
		if _, ok := liftX(nonResidue, false); !ok {
			break
		}
		nonResidue.Add(nonResidue, big.NewInt(1))
	}
	g, h := Generator(), SecondGenerator()
	seeds := [][]byte{
		nil, {0x02}, make([]byte, CompressedSize-1), make([]byte, CompressedSize+1),
		Point{}.Bytes(), g.Bytes(), g.Neg().Bytes(), h.Bytes(), h.Neg().Bytes(),
		append(g.Bytes(), 0),
	}
	for _, tag := range []byte{0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x82} {
		for _, x := range []*big.Int{big.NewInt(0), big.NewInt(1), nonResidue, pMinus1, curveP, pPlus1, allOnes, g.x} {
			seeds = append(seeds, encode(tag, x))
		}
	}
	badIdentity := make([]byte, CompressedSize)
	badIdentity[CompressedSize-1] = 1
	return append(seeds, badIdentity)
}

func TestFromBytesMatchesLiftXDecoder(t *testing.T) {
	for _, b := range decodeSeeds() {
		checkDecode(t, b)
	}
	// Random encodings: about half of all x are abscissae, so both verdicts
	// are well covered; tags lean towards the two that reach the curve.
	r := testRand(11)
	tags := []byte{0x02, 0x03, 0x02, 0x03, 0x02, 0x03, 0x00, 0x01, 0x04, 0xff}
	accepted := 0
	for i := 0; i < 10_000; i++ {
		b := make([]byte, CompressedSize)
		r.Read(b)
		b[0] = tags[i%len(tags)]
		if checkDecode(t, b) {
			accepted++
		}
	}
	if accepted < 2000 || accepted > 4000 {
		t.Fatalf("%d of 10000 random encodings accepted; expected about 3000", accepted)
	}
	// Every encoding Bytes produces, and its other parity, decodes.
	for i := 0; i < 200; i++ {
		p := BaseMul(field.MustRandom(r))
		checkDecode(t, p.Bytes())
		flipped := p.Bytes()
		flipped[0] ^= 1
		if q, err := FromBytes(flipped); !checkDecode(t, flipped) || err != nil || !q.Equal(p.Neg()) {
			t.Fatal("flipping the parity tag does not negate the point")
		}
	}
}

// FuzzPointFromBytes: FromBytes and the liftX reference decoder take and
// refuse the same encodings and decode the same points.
func FuzzPointFromBytes(f *testing.F) {
	for _, b := range decodeSeeds() {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) { checkDecode(t, b) })
}

// TestMulSmallMatchesMul covers both sides of the 8-bit fallback, the zero
// multiplier and the identity.
func TestMulSmallMatchesMul(t *testing.T) {
	r := testRand(12)
	ks := []uint64{511, 512, 1 << 32, 1<<64 - 1}
	for k := uint64(0); k <= 300; k++ {
		ks = append(ks, k)
	}
	for _, p := range []Point{Generator(), SecondGenerator(), BaseMul(field.MustRandom(r)), {}} {
		for _, k := range ks {
			if got, want := p.MulSmall(k), p.Mul(field.FromUint64(k)); !got.Equal(want) {
				t.Fatalf("MulSmall(%d) = %v, Mul gives %v", k, got, want)
			}
		}
	}
}

var benchPoint Point

func BenchmarkPointFromBytes(b *testing.B) {
	enc := BaseMul(field.MustRandom(testRand(13))).Bytes()
	b.ReportAllocs()
	for b.Loop() {
		benchPoint, _ = FromBytes(enc)
	}
}

func BenchmarkMulSmall(b *testing.B) {
	p := BaseMul(field.MustRandom(testRand(14)))
	b.ReportAllocs()
	for b.Loop() {
		benchPoint = p.MulSmall(7)
	}
}
