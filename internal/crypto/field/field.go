// Package field implements arithmetic in the scalar field Z_q, where q is
// the order of the NIST P-256 base point. Every cryptographic object in this
// repository (Schnorr signatures, VRFs, Pedersen commitments, Shamir shares,
// and the simulated pairing group) works over this single field, which lets
// the polynomial and Lagrange machinery be shared across all of them.
//
// Scalars are immutable: every operation returns a fresh value and never
// mutates its operands. The zero value of Scalar is the field element 0 and
// is ready to use.
package field

import (
	"crypto/elliptic"
	"errors"
	"fmt"
	"io"
	"math/big"
)

// Size is the length of the canonical byte encoding of a Scalar.
const Size = 32

// q is the field modulus: the order of the P-256 base point.
var q = elliptic.P256().Params().N

// Modulus returns a copy of the field modulus q.
func Modulus() *big.Int { return new(big.Int).Set(q) }

// Scalar is an element of Z_q. The zero value represents 0.
type Scalar struct {
	v *big.Int // always nil (meaning 0) or reduced into [0, q)
}

// big returns the underlying value, treating nil as zero. The returned
// pointer must not be mutated.
func (s Scalar) big() *big.Int {
	if s.v == nil {
		return new(big.Int)
	}
	return s.v
}

// reduce wraps v (which may be any integer) into a canonical Scalar.
func reduce(v *big.Int) Scalar {
	r := new(big.Int).Mod(v, q)
	return Scalar{v: r}
}

// Zero returns the additive identity.
func Zero() Scalar { return Scalar{} }

// One returns the multiplicative identity.
func One() Scalar { return FromUint64(1) }

// FromUint64 lifts a small integer into the field.
func FromUint64(u uint64) Scalar {
	return Scalar{v: new(big.Int).SetUint64(u)}
}

// FromInt lifts a (possibly negative) machine integer into the field.
func FromInt(i int) Scalar {
	return reduce(big.NewInt(int64(i)))
}

// FromBig reduces an arbitrary big integer into the field.
func FromBig(v *big.Int) Scalar { return reduce(v) }

// FromBytes interprets b as a big-endian integer and reduces it mod q.
// It accepts any length; use SetCanonical for strict 32-byte decoding.
func FromBytes(b []byte) Scalar {
	return reduce(new(big.Int).SetBytes(b))
}

// ErrNonCanonical is returned by SetCanonical for invalid encodings.
var ErrNonCanonical = errors.New("field: non-canonical scalar encoding")

// SetCanonical decodes a strict 32-byte big-endian encoding of a value < q.
func SetCanonical(b []byte) (Scalar, error) {
	if len(b) != Size {
		return Scalar{}, fmt.Errorf("%w: length %d", ErrNonCanonical, len(b))
	}
	v := new(big.Int).SetBytes(b)
	if v.Cmp(q) >= 0 {
		return Scalar{}, ErrNonCanonical
	}
	return Scalar{v: v}, nil
}

// Random samples a uniform field element from the given reader.
func Random(r io.Reader) (Scalar, error) {
	// Rejection-free: sample 48 bytes (>16 bytes more than needed) and
	// reduce; the bias is < 2^-128.
	buf := make([]byte, Size+16)
	if _, err := io.ReadFull(r, buf); err != nil {
		return Scalar{}, fmt.Errorf("field: sampling randomness: %w", err)
	}
	return FromBytes(buf), nil
}

// MustRandom is Random for readers that cannot fail (e.g. deterministic
// simulation PRNGs). It panics on read error.
func MustRandom(r io.Reader) Scalar {
	s, err := Random(r)
	if err != nil {
		panic(err)
	}
	return s
}

// Add returns s + t.
func (s Scalar) Add(t Scalar) Scalar {
	return reduce(new(big.Int).Add(s.big(), t.big()))
}

// Sub returns s - t.
func (s Scalar) Sub(t Scalar) Scalar {
	return reduce(new(big.Int).Sub(s.big(), t.big()))
}

// Mul returns s * t.
func (s Scalar) Mul(t Scalar) Scalar {
	return reduce(new(big.Int).Mul(s.big(), t.big()))
}

// Neg returns -s.
func (s Scalar) Neg() Scalar {
	return reduce(new(big.Int).Neg(s.big()))
}

// Inv returns the multiplicative inverse of s. It panics on zero, which is
// always a programming error in this codebase (inversion inputs are distinct
// evaluation points or verified-nonzero denominators).
func (s Scalar) Inv() Scalar {
	if s.IsZero() {
		panic("field: inverse of zero")
	}
	return Scalar{v: new(big.Int).ModInverse(s.big(), q)}
}

// Dot returns the inner product Σ ws[i]·vs[i] with lazy reduction: the
// products accumulate as one unreduced integer and a single Mod closes the
// sum, instead of the 2·len interleaved reductions the naive
// Mul/Add chain pays. It is the per-column kernel of the Reed–Solomon
// codec's cached-basis application, where the reduction count — not the
// multiplication count — dominates. Panics if the slices differ in length.
func Dot(ws, vs []Scalar) Scalar {
	if len(ws) != len(vs) {
		panic("field: Dot length mismatch")
	}
	acc := new(big.Int)
	tmp := new(big.Int)
	for i := range ws {
		tmp.Mul(ws[i].big(), vs[i].big())
		acc.Add(acc, tmp)
	}
	return reduce(acc)
}

// BatchInv inverts every element of xs with Montgomery's trick: one modular
// inversion plus 3(len−1) multiplications instead of len inversions. It is
// the workhorse of the cached Lagrange-basis precomputations (poly.EvalMatrix,
// the Reed–Solomon codec), where a naive per-denominator ModInverse dominates
// the basis build. Like Inv, it panics on a zero input — inversion inputs in
// this codebase are differences of distinct evaluation points.
func BatchInv(xs []Scalar) []Scalar {
	out := make([]Scalar, len(xs))
	if len(xs) == 0 {
		return out
	}
	// prefix[i] = x_0 · … · x_i
	prefix := make([]Scalar, len(xs))
	acc := One()
	for i, x := range xs {
		if x.IsZero() {
			panic("field: inverse of zero")
		}
		acc = acc.Mul(x)
		prefix[i] = acc
	}
	// inv runs backward: inv(x_0·…·x_i) = inv(x_0·…·x_{i+1}) · x_{i+1}.
	inv := prefix[len(xs)-1].Inv()
	for i := len(xs) - 1; i > 0; i-- {
		out[i] = inv.Mul(prefix[i-1])
		inv = inv.Mul(xs[i])
	}
	out[0] = inv
	return out
}

// Exp returns s^e for a non-negative machine integer exponent.
func (s Scalar) Exp(e uint64) Scalar {
	return Scalar{v: new(big.Int).Exp(s.big(), new(big.Int).SetUint64(e), q)}
}

// Equal reports whether s == t.
func (s Scalar) Equal(t Scalar) bool { return s.big().Cmp(t.big()) == 0 }

// IsZero reports whether s is the additive identity.
func (s Scalar) IsZero() bool { return s.big().Sign() == 0 }

// Bytes returns the canonical 32-byte big-endian encoding.
func (s Scalar) Bytes() []byte {
	out := make([]byte, Size)
	s.big().FillBytes(out)
	return out
}

// Big returns a copy of the value as a big integer.
func (s Scalar) Big() *big.Int { return new(big.Int).Set(s.big()) }

// String implements fmt.Stringer with a short hex rendering.
func (s Scalar) String() string {
	b := s.Bytes()
	return fmt.Sprintf("%x…", b[:4])
}
