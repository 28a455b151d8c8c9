// Package poly implements univariate polynomials over the scalar field,
// Shamir secret sharing, and Lagrange interpolation. It is the algebraic
// backbone of the AVSS (Alg. 1/2), the aggregatable PVSS (Alg. 6), and every
// threshold reconstruction in the repository.
//
// Shares are evaluated at the canonical points ω_i = i+1 for 0-based party
// index i (the paper's P_1 … P_n evaluate at 1 … n).
package poly

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/crypto/field"
	"repro/internal/order"
)

// Poly is a polynomial represented by its coefficient vector, lowest degree
// first. The zero value is the zero polynomial.
type Poly struct {
	coeffs []field.Scalar
}

// New builds a polynomial from coefficients a_0, a_1, …; the slice is copied.
func New(coeffs ...field.Scalar) Poly {
	c := make([]field.Scalar, len(coeffs))
	copy(c, coeffs)
	return Poly{coeffs: c}
}

// Random samples a uniform polynomial of the given degree (degree+1
// coefficients) from r.
func Random(r io.Reader, degree int) (Poly, error) {
	if degree < 0 {
		return Poly{}, errors.New("poly: negative degree")
	}
	c := make([]field.Scalar, degree+1)
	for i := range c {
		s, err := field.Random(r)
		if err != nil {
			return Poly{}, fmt.Errorf("poly: sampling coefficient %d: %w", i, err)
		}
		c[i] = s
	}
	return Poly{coeffs: c}, nil
}

// RandomWithSecret samples a uniform polynomial of the given degree whose
// constant term is the provided secret.
func RandomWithSecret(r io.Reader, degree int, secret field.Scalar) (Poly, error) {
	p, err := Random(r, degree)
	if err != nil {
		return Poly{}, err
	}
	p.coeffs[0] = secret
	return p, nil
}

// Degree returns the formal degree (len(coeffs)-1); -1 for the zero poly.
func (p Poly) Degree() int { return len(p.coeffs) - 1 }

// Coeff returns the i-th coefficient (zero beyond the stored degree).
func (p Poly) Coeff(i int) field.Scalar {
	if i < 0 || i >= len(p.coeffs) {
		return field.Zero()
	}
	return p.coeffs[i]
}

// Secret returns the constant term p(0).
func (p Poly) Secret() field.Scalar { return p.Coeff(0) }

// Eval evaluates the polynomial at x via Horner's rule.
func (p Poly) Eval(x field.Scalar) field.Scalar {
	acc := field.Zero()
	for i := len(p.coeffs) - 1; i >= 0; i-- {
		acc = acc.Mul(x).Add(p.coeffs[i])
	}
	return acc
}

// Add returns p + q.
func (p Poly) Add(q Poly) Poly {
	n := max(len(p.coeffs), len(q.coeffs))
	c := make([]field.Scalar, n)
	for i := range c {
		c[i] = p.Coeff(i).Add(q.Coeff(i))
	}
	return Poly{coeffs: c}
}

// X returns the canonical evaluation point for 0-based party index i,
// namely the field element i+1.
func X(i int) field.Scalar { return field.FromInt(i + 1) }

// Share is one party's evaluation of a secret-sharing polynomial.
type Share struct {
	Index int          // 0-based party index; evaluation point is X(Index)
	Value field.Scalar // p(X(Index))
}

// EvalShare produces party i's share of p.
func (p Poly) EvalShare(i int) Share {
	return Share{Index: i, Value: p.Eval(X(i))}
}

// ErrDuplicatePoint is returned when interpolation inputs repeat an index.
var ErrDuplicatePoint = errors.New("poly: duplicate evaluation point")

// InterpolateAt evaluates, at point `at`, the unique polynomial of degree
// len(shares)-1 passing through the shares. The common case is at=0 to
// recover a shared secret.
func InterpolateAt(shares []Share, at field.Scalar) (field.Scalar, error) {
	if len(shares) == 0 {
		return field.Scalar{}, errors.New("poly: no shares")
	}
	xs := make([]field.Scalar, len(shares))
	seen := make(map[int]bool, len(shares))
	for i, sh := range shares {
		if seen[sh.Index] {
			return field.Scalar{}, fmt.Errorf("%w: index %d", ErrDuplicatePoint, sh.Index)
		}
		seen[sh.Index] = true
		xs[i] = X(sh.Index)
	}
	coeffs, err := LagrangeCoeffs(xs, at)
	if err != nil {
		return field.Scalar{}, err
	}
	acc := field.Zero()
	for i, sh := range shares {
		acc = acc.Add(coeffs[i].Mul(sh.Value))
	}
	return acc, nil
}

// LagrangeCoeffs returns the Lagrange basis coefficients λ_i such that, for
// any polynomial p of degree < len(xs), p(at) = Σ λ_i · p(xs[i]). The xs must
// be pairwise distinct.
func LagrangeCoeffs(xs []field.Scalar, at field.Scalar) ([]field.Scalar, error) {
	out := make([]field.Scalar, len(xs))
	for i, xi := range xs {
		num, den := field.One(), field.One()
		for j, xj := range xs {
			if i == j {
				continue
			}
			num = num.Mul(at.Sub(xj))
			den = den.Mul(xi.Sub(xj))
			if den.IsZero() {
				return nil, fmt.Errorf("%w: x=%v", ErrDuplicatePoint, xj)
			}
		}
		out[i] = num.Mul(den.Inv())
	}
	return out, nil
}

// Elem is an element of a group written multiplicatively, whose zero value
// is the identity (pairing.G2 and pairing.GT).
type Elem[E any] interface {
	Mul(E) E
	Exp(field.Scalar) E
}

// CombineAtZero interpolates shares (party index → share of a degree-degree
// polynomial in the exponent) to the value at 0: Π_i shares[i]^{λ_i}. It
// uses the degree+1 lowest-indexed shares — sorted party order, not map
// order — so the chosen subset, and every transcript byte downstream, is a
// deterministic function of the share set.
func CombineAtZero[E Elem[E]](shares map[int]E, degree int) (E, error) {
	var acc E
	if len(shares) < degree+1 {
		return acc, fmt.Errorf("poly: %d shares, need %d", len(shares), degree+1)
	}
	idxs := order.SortedKeys(shares)[:degree+1]
	xs := make([]field.Scalar, len(idxs))
	for k, i := range idxs {
		xs[k] = X(i)
	}
	lag, err := LagrangeCoeffs(xs, field.Zero())
	if err != nil {
		return acc, err
	}
	for k, i := range idxs {
		acc = acc.Mul(shares[i].Exp(lag[k]))
	}
	return acc, nil
}

// EvalMatrix returns the Lagrange evaluation matrix rows[r][j] = λ_j(ats[r])
// for the basis over xs: for any polynomial p of degree < len(xs),
// p(ats[r]) = Σ_j rows[r][j] · p(xs[j]). It computes the same coefficients as
// LagrangeCoeffs row by row, but shares the per-basis denominators across all
// rows and batches every inversion (field.BatchInv), so precomputing a whole
// extension or reconstruction matrix costs two batched inversions instead of
// O(len(xs)·len(ats)) modular inverses. An evaluation point that coincides
// with some xs[m] yields the exact unit row e_m (the basis property), with no
// field multiplications for that row.
func EvalMatrix(xs, ats []field.Scalar) ([][]field.Scalar, error) {
	k := len(xs)
	if k == 0 {
		return nil, errors.New("poly: empty basis")
	}
	// dens[j] = Π_{i≠j} (x_j − x_i), shared by every row.
	dens := make([]field.Scalar, k)
	for j, xj := range xs {
		d := field.One()
		for i, xi := range xs {
			if i == j {
				continue
			}
			diff := xj.Sub(xi)
			if diff.IsZero() {
				return nil, fmt.Errorf("%w: x=%v", ErrDuplicatePoint, xi)
			}
			d = d.Mul(diff)
		}
		dens[j] = d
	}
	invDens := field.BatchInv(dens)

	rows := make([][]field.Scalar, len(ats))
	for r, at := range ats {
		row := make([]field.Scalar, k)
		// On-basis point: λ_j(x_m) is the Kronecker delta.
		unit := -1
		diffs := make([]field.Scalar, k)
		for j, xj := range xs {
			diffs[j] = at.Sub(xj)
			if diffs[j].IsZero() {
				unit = j
			}
		}
		if unit >= 0 {
			row[unit] = field.One()
			rows[r] = row
			continue
		}
		// λ_j(at) = M / ((at − x_j) · den_j) with M = Π_i (at − x_i).
		m := field.One()
		for _, d := range diffs {
			m = m.Mul(d)
		}
		invDiffs := field.BatchInv(diffs)
		for j := range row {
			row[j] = m.Mul(invDiffs[j]).Mul(invDens[j])
		}
		rows[r] = row
	}
	return rows, nil
}

// Interpolate reconstructs the full coefficient vector of the unique
// polynomial of degree len(shares)-1 through the shares. It is used by tests
// and by the AVSS key-recovery path, where the degree bound is checked by
// the caller against the Pedersen commitment.
func Interpolate(shares []Share) (Poly, error) {
	n := len(shares)
	if n == 0 {
		return Poly{}, errors.New("poly: no shares")
	}
	// Build via Newton's divided differences for O(n²) work.
	xs := make([]field.Scalar, n)
	seen := make(map[int]bool, n)
	for i, sh := range shares {
		if seen[sh.Index] {
			return Poly{}, fmt.Errorf("%w: index %d", ErrDuplicatePoint, sh.Index)
		}
		seen[sh.Index] = true
		xs[i] = X(sh.Index)
	}
	// Divided-difference table (in place).
	dd := make([]field.Scalar, n)
	for i, sh := range shares {
		dd[i] = sh.Value
	}
	for level := 1; level < n; level++ {
		for i := n - 1; i >= level; i-- {
			den := xs[i].Sub(xs[i-level])
			dd[i] = dd[i].Sub(dd[i-1]).Mul(den.Inv())
		}
	}
	// Expand Newton form to monomial coefficients.
	coeffs := make([]field.Scalar, n)
	basis := []field.Scalar{field.One()} // Π (x - x_j) so far
	for i := 0; i < n; i++ {
		for j := range basis {
			coeffs[j] = coeffs[j].Add(dd[i].Mul(basis[j]))
		}
		if i < n-1 {
			// basis *= (x - xs[i])
			next := make([]field.Scalar, len(basis)+1)
			for j, b := range basis {
				next[j] = next[j].Add(b.Mul(xs[i].Neg()))
				next[j+1] = next[j+1].Add(b)
			}
			basis = next
		}
	}
	return Poly{coeffs: coeffs}, nil
}
