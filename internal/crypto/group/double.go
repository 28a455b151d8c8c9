package group

// Double-scalar multiplication: the DLEQ verification shape k1·P + k2·Q,
// composed from the standard library's scalar multiplications. Where
// crypto/elliptic's P-256 backend is assembly (amd64, arm64, ppc64le,
// s390x) one ScalarMult runs ~20× faster than any math/big ladder this
// package could express, so an interleaved Strauss/Shamir ladder cannot win
// there, and no measured platform runs anything else.

import "repro/internal/crypto/field"

// DoubleMul returns k1·p1 + k2·p2.
func DoubleMul(k1 field.Scalar, p1 Point, k2 field.Scalar, p2 Point) Point {
	return p1.Mul(k1).Add(p2.Mul(k2))
}

// BaseDoubleMul returns k1·G + k2·p — the s·G − c·PK leg shape of a DLEQ
// verification (pass a negated scalar or point for subtraction).
func BaseDoubleMul(k1 field.Scalar, k2 field.Scalar, p Point) Point {
	return BaseMul(k1).Add(p.Mul(k2))
}
