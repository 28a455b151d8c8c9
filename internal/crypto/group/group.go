// Package group wraps the NIST P-256 curve as a prime-order group with the
// operations the protocol stack needs: point addition, scalar
// multiplication, a second independent generator for Pedersen commitments,
// hash-to-curve (try-and-increment), and compressed 33-byte encodings.
//
// The identity element is represented explicitly (the zero value of Point)
// because crypto/elliptic's affine formulas do not handle the point at
// infinity.
package group

import (
	"crypto/elliptic"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
	"math/bits"
	"sync"

	"repro/internal/crypto/field"
)

// CompressedSize is the length of a compressed point encoding.
const CompressedSize = 33

var (
	curve = elliptic.P256()
	// curveB is the b parameter of y² = x³ - 3x + b.
	curveB = curve.Params().B
	curveP = curve.Params().P
)

// Point is a P-256 group element. The zero value is the identity.
type Point struct {
	x, y *big.Int
}

// Generator returns the standard base point G.
func Generator() Point {
	return Point{x: curve.Params().Gx, y: curve.Params().Gy}
}

var secondGen = hashToPointUncached("repro/group: second generator h", nil)

// SecondGenerator returns a generator h with unknown discrete log relative
// to G, derived by hashing to the curve. It blinds Pedersen commitments.
func SecondGenerator() Point { return secondGen }

// IsIdentity reports whether p is the group identity.
func (p Point) IsIdentity() bool { return p.x == nil }

// Equal reports whether two points are the same group element.
func (p Point) Equal(q Point) bool {
	if p.IsIdentity() || q.IsIdentity() {
		return p.IsIdentity() == q.IsIdentity()
	}
	return p.x.Cmp(q.x) == 0 && p.y.Cmp(q.y) == 0
}

// Add returns p + q.
func (p Point) Add(q Point) Point {
	if p.IsIdentity() {
		return q
	}
	if q.IsIdentity() {
		return p
	}
	if p.x.Cmp(q.x) == 0 && p.y.Cmp(q.y) != 0 {
		return Point{} // p + (-p) = identity
	}
	var x, y *big.Int
	if p.x.Cmp(q.x) == 0 && p.y.Cmp(q.y) == 0 {
		x, y = curve.Double(p.x, p.y)
	} else {
		x, y = curve.Add(p.x, p.y, q.x, q.y)
	}
	return Point{x: x, y: y}
}

// Neg returns -p.
func (p Point) Neg() Point {
	if p.IsIdentity() {
		return p
	}
	return Point{x: p.x, y: new(big.Int).Sub(curveP, p.y)}
}

// Sub returns p - q.
func (p Point) Sub(q Point) Point { return p.Add(q.Neg()) }

// Mul returns k·p.
func (p Point) Mul(k field.Scalar) Point {
	if p.IsIdentity() || k.IsZero() {
		return Point{}
	}
	x, y := curve.ScalarMult(p.x, p.y, k.Bytes())
	if x.Sign() == 0 && y.Sign() == 0 {
		return Point{}
	}
	return Point{x: x, y: y}
}

// MulSmall returns k·p for a small public multiplier such as a party index.
// Up to 8 bits it runs a most-significant-bit-first double-and-add chain of
// affine additions, which beats the constant-time 256-bit ladder of Mul
// (one addition or doubling costs ≈ 1/10 of a ScalarMult; the crossover is
// near 9 bits); wider multipliers take Mul. The chain's length and shape
// show k, so a secret scalar must never come this way — which is why this
// is a method of its own and not a shortcut inside Mul.
func (p Point) MulSmall(k uint64) Point {
	if k > 0xff {
		return p.Mul(field.FromUint64(k))
	}
	acc := Point{}
	for i := bits.Len64(k) - 1; i >= 0; i-- {
		acc = acc.Add(acc)
		if k>>i&1 == 1 {
			acc = acc.Add(p)
		}
	}
	return acc
}

// BaseMul returns k·G through the standard library's fixed-base path.
func BaseMul(k field.Scalar) Point {
	if k.IsZero() {
		return Point{}
	}
	x, y := curve.ScalarBaseMult(k.Bytes())
	return Point{x: x, y: y}
}

// Bytes returns the compressed encoding: 0x02/0x03 tag plus the 32-byte x
// coordinate; the identity encodes as 33 zero bytes.
func (p Point) Bytes() []byte {
	out := make([]byte, CompressedSize)
	if p.IsIdentity() {
		return out
	}
	if p.y.Bit(0) == 0 {
		out[0] = 0x02
	} else {
		out[0] = 0x03
	}
	p.x.FillBytes(out[1:])
	return out
}

// ErrInvalidPoint is returned when decoding rejects an encoding.
var ErrInvalidPoint = errors.New("group: invalid point encoding")

// FromBytes decodes a compressed encoding produced by Bytes.
func FromBytes(b []byte) (Point, error) {
	if len(b) != CompressedSize {
		return Point{}, fmt.Errorf("%w: length %d", ErrInvalidPoint, len(b))
	}
	switch b[0] {
	case 0x00:
		for _, c := range b[1:] {
			if c != 0 {
				return Point{}, fmt.Errorf("%w: bad identity encoding", ErrInvalidPoint)
			}
		}
		return Point{}, nil
	case 0x02, 0x03:
		// The standard library's decoder takes exactly what liftX took —
		// x < p, x on the curve, y of the tagged parity — with the field
		// square root in the P-256 backend instead of big.Int.ModSqrt.
		x, y := elliptic.UnmarshalCompressed(curve, b)
		if x == nil {
			return Point{}, fmt.Errorf("%w: x out of range or not on curve", ErrInvalidPoint)
		}
		return Point{x: x, y: y}, nil
	default:
		return Point{}, fmt.Errorf("%w: tag %#x", ErrInvalidPoint, b[0])
	}
}

// liftX solves y² = x³ - 3x + b for y, choosing the root with the requested
// parity. ok is false when x is not the abscissa of a curve point. Only
// hashToPointUncached calls it: its candidate and parity rule fix the second
// generator and every VRF output, so it must not change by a bit.
func liftX(x *big.Int, odd bool) (y *big.Int, ok bool) {
	// rhs = x³ - 3x + b mod p
	rhs := new(big.Int).Mul(x, x)
	rhs.Mod(rhs, curveP)
	rhs.Mul(rhs, x)
	rhs.Mod(rhs, curveP)
	threeX := new(big.Int).Lsh(x, 1)
	threeX.Add(threeX, x)
	rhs.Sub(rhs, threeX)
	rhs.Add(rhs, curveB)
	rhs.Mod(rhs, curveP)
	y = new(big.Int).ModSqrt(rhs, curveP)
	if y == nil {
		return nil, false
	}
	if (y.Bit(0) == 1) != odd {
		y.Sub(curveP, y)
	}
	return y, true
}

// h2cCache memoizes HashToPoint results. Each try-and-increment attempt
// pays a big.Int ModSqrt (~1/3 of a cold VRF verification, measured), and
// the protocol stack hashes the same VRF input once per verification — a
// point cache turns all but the first into a map lookup. Keys hash the
// input so entry size is bounded; the map is reset wholesale at the cap
// (the cache is advisory, results are deterministic either way).
var h2cCache = struct {
	sync.Mutex
	m map[h2cKey]Point
}{m: make(map[h2cKey]Point)}

type h2cKey struct {
	domain string
	data   [sha256.Size]byte
}

const h2cCacheMax = 1 << 14

// HashToPoint deterministically maps (domain, data) to a curve point with
// unknown discrete log, via try-and-increment: candidate x-coordinates are
// derived from SHA-256(domain ‖ counter ‖ data) until one lifts. Results
// are memoized; Point values are immutable so sharing is safe.
func HashToPoint(domain string, data []byte) Point {
	key := h2cKey{domain: domain, data: sha256.Sum256(data)}
	h2cCache.Lock()
	if p, ok := h2cCache.m[key]; ok {
		h2cCache.Unlock()
		return p
	}
	h2cCache.Unlock()
	p := hashToPointUncached(domain, data)
	h2cCache.Lock()
	if len(h2cCache.m) >= h2cCacheMax {
		h2cCache.m = make(map[h2cKey]Point)
	}
	h2cCache.m[key] = p
	h2cCache.Unlock()
	return p
}

func hashToPointUncached(domain string, data []byte) Point {
	var ctr [4]byte
	for i := uint32(0); ; i++ {
		binary.BigEndian.PutUint32(ctr[:], i)
		h := sha256.New()
		h.Write([]byte(domain))
		h.Write(ctr[:])
		h.Write(data)
		x := new(big.Int).SetBytes(h.Sum(nil))
		x.Mod(x, curveP)
		if y, ok := liftX(x, x.Bit(1) == 1); ok {
			// Multiply by the cofactor would go here; P-256 has cofactor 1.
			return Point{x: x, y: y}
		}
	}
}

// String implements fmt.Stringer.
func (p Point) String() string {
	if p.IsIdentity() {
		return "Point(∞)"
	}
	return fmt.Sprintf("Point(%x…)", p.Bytes()[:5])
}
