// Package sig implements Schnorr signatures over P-256 with SHA-256 as the
// random oracle, plus the quorum-certificate helpers the protocols use in
// the bulletin-PKI setting (n−f concatenated signatures stand in for the
// threshold signatures that private-setup protocols would use, exactly as
// discussed in §7.2 of the paper).
//
// Every quorum in the protocols signs a Digest under one of four domains:
// "avss/stored" (Π, Alg. 1), "seeding/stored" (Σ, Alg. 7), "wcs/confirm"
// (Σ, Alg. 3) and "vba/ack" (the §7.2 VBA's stage certificates). A Quorum
// carries those signatures; pki.Keyring signs, collects and checks them.
//
// Signatures are EUF-CMA secure in the ROM under the discrete-log
// assumption. Nonces are derived deterministically (RFC 6979 style) so
// signing needs no randomness source.
package sig

import (
	"crypto/sha256"
	"fmt"
	"io"
	"slices"

	"repro/internal/crypto/field"
	"repro/internal/crypto/group"
	"repro/internal/wire"
)

// Size is the byte length of an encoded signature (c ‖ s).
const Size = 2 * field.Size

// PublicKey is a Schnorr verification key.
type PublicKey struct {
	P group.Point
}

// PrivateKey is a Schnorr signing key with its public counterpart.
type PrivateKey struct {
	S  field.Scalar
	PK PublicKey
}

// Signature is a Schnorr signature (c, s).
type Signature struct {
	C, S field.Scalar
}

// GenerateKey samples a fresh key pair from r.
func GenerateKey(r io.Reader) (PrivateKey, error) {
	s, err := field.Random(r)
	if err != nil {
		return PrivateKey{}, fmt.Errorf("sig: keygen: %w", err)
	}
	if s.IsZero() {
		s = field.One()
	}
	return PrivateKey{S: s, PK: PublicKey{P: group.BaseMul(s)}}, nil
}

// challenge computes the Fiat–Shamir challenge c = H(pk ‖ R ‖ msg).
func challenge(pk PublicKey, r group.Point, msg []byte) field.Scalar {
	h := sha256.New()
	h.Write([]byte("repro/sig"))
	h.Write(pk.P.Bytes())
	h.Write(r.Bytes())
	h.Write(msg)
	return field.FromBytes(h.Sum(nil))
}

// Sign produces a signature on msg.
func (sk PrivateKey) Sign(msg []byte) Signature {
	// Deterministic nonce: k = H(sk ‖ msg), never reused across messages.
	h := sha256.New()
	h.Write([]byte("repro/sig nonce"))
	h.Write(sk.S.Bytes())
	h.Write(msg)
	k := field.FromBytes(h.Sum(nil))
	if k.IsZero() {
		k = field.One()
	}
	r := group.BaseMul(k)
	c := challenge(sk.PK, r, msg)
	s := k.Add(c.Mul(sk.S))
	return Signature{C: c, S: s}
}

// Verify reports whether sig is a valid signature on msg under pk.
func Verify(pk PublicKey, msg []byte, s Signature) bool {
	// R' = s·G - c·PK ; accept iff c == H(pk ‖ R' ‖ msg).
	r := group.BaseMul(s.S).Sub(pk.P.Mul(s.C))
	return challenge(pk, r, msg).Equal(s.C)
}

// Bytes encodes the signature as c ‖ s (64 bytes).
func (s Signature) Bytes() []byte {
	out := make([]byte, 0, Size)
	out = append(out, s.C.Bytes()...)
	return append(out, s.S.Bytes()...)
}

// SignatureFromBytes decodes a 64-byte signature.
func SignatureFromBytes(b []byte) (Signature, error) {
	if len(b) != Size {
		return Signature{}, fmt.Errorf("sig: bad signature length %d", len(b))
	}
	c, err := field.SetCanonical(b[:field.Size])
	if err != nil {
		return Signature{}, fmt.Errorf("sig: decoding c: %w", err)
	}
	s, err := field.SetCanonical(b[field.Size:])
	if err != nil {
		return Signature{}, fmt.Errorf("sig: decoding s: %w", err)
	}
	return Signature{C: c, S: s}, nil
}

// Digest is the message a quorum signs: SHA-256 over domain ‖ inst ‖ parts.
func Digest(domain, inst string, parts ...[]byte) []byte {
	h := sha256.New()
	h.Write([]byte(domain))
	h.Write([]byte(inst))
	for _, p := range parts {
		h.Write(p)
	}
	return h.Sum(nil)
}

// Quorum is a set of signatures on one message from distinct parties — the
// PKI-setting replacement for a threshold signature ("quorum proof" Π/Σ in
// Algorithms 1, 3 and 7).
type Quorum struct {
	Indices []int       // 0-based signer indices, strictly increasing
	Sigs    []Signature // parallel to Indices
}

// Add inserts a signature keeping indices sorted; duplicates are ignored.
func (q *Quorum) Add(index int, s Signature) {
	pos, dup := slices.BinarySearch(q.Indices, index)
	if dup {
		return
	}
	q.Indices = slices.Insert(q.Indices, pos, index)
	q.Sigs = slices.Insert(q.Sigs, pos, s)
}

// Has reports whether index has already signed.
func (q *Quorum) Has(index int) bool {
	_, ok := slices.BinarySearch(q.Indices, index)
	return ok
}

// Len returns the number of signatures collected.
func (q *Quorum) Len() int { return len(q.Indices) }

// Encode writes the quorum to a wire writer (count, then index‖sig pairs).
func (q *Quorum) Encode(w *wire.Writer) {
	w.Int(q.Len())
	for i, idx := range q.Indices {
		w.Int(idx)
		w.Raw(q.Sigs[i].Bytes())
	}
}

// DecodeQuorum reads a quorum written by Encode, rejecting more than maxLen
// entries. ok is false on any malformation, indices that are not strictly
// increasing included, so a quorum has one encoding.
func DecodeQuorum(rd *wire.Reader, maxLen int) (Quorum, bool) {
	var q Quorum
	n := rd.Int()
	if rd.Err() != nil || n < 0 || n > maxLen {
		return q, false
	}
	for i := 0; i < n; i++ {
		idx := rd.Int()
		sb := rd.Raw(Size)
		if rd.Err() != nil || i > 0 && idx <= q.Indices[i-1] {
			return q, false
		}
		s, err := SignatureFromBytes(sb)
		if err != nil {
			return q, false
		}
		q.Indices, q.Sigs = append(q.Indices, idx), append(q.Sigs, s)
	}
	return q, true
}
