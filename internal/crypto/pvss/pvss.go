// Package pvss implements the aggregatable public verifiable secret sharing
// scheme of Gurkan et al. (EUROCRYPT'21), as abstracted in §4 and Alg. 6 of
// the paper. It is the engine of the Seeding protocol (Alg. 7) and of the
// ADKG application (§7.3).
//
// A dealer commits a secret a₀ behind a polynomial F of fixed degree; the
// script carries coefficient commitments F_k = g1^{a_k}, per-party
// evaluation commitments A_i = g1^{F(ω_i)}, encrypted shares
// Ŷ_i = ek_i^{F(ω_i)}, and an unforgeable weight tag (C_i, σ_i) binding the
// dealer's contribution. Scripts from distinct dealers aggregate
// component-wise; Weights() exposes how many times each dealer contributed
// (verifiable aggregation).
//
// The scheme runs over the simulated pairing group (see
// internal/crypto/pairing for the substitution notice); every check from
// Alg. 6 — the Schwartz–Zippel degree check, the three pairing product
// checks, the SoK checks, and Π C_i^{w_i} = F₀ — executes exactly as
// written.
package pvss

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io"

	"repro/internal/crypto/field"
	"repro/internal/crypto/pairing"
	"repro/internal/crypto/poly"
	"repro/internal/order"
)

// Params fixes the sharing topology: n parties, polynomial degree d
// (reconstruction needs d+1 shares; the adversary learns nothing from d or
// fewer). Seeding uses d = 2f; ADKG uses d = f.
type Params struct {
	N      int
	Degree int
}

// Validate sanity-checks the parameters.
func (p Params) Validate() error {
	if p.N <= 0 || p.Degree < 0 || p.Degree >= p.N {
		return fmt.Errorf("pvss: invalid params n=%d degree=%d", p.N, p.Degree)
	}
	return nil
}

// EncKey is a party's PVSS encryption key ek = ĥ1^{dk}.
type EncKey struct{ E pairing.G2 }

// DecKey is the matching decryption key.
type DecKey struct{ D field.Scalar }

// SigKey is a dealer's tag-signing key; its verification key is vk = g1^{sk}.
type SigKey struct {
	S  field.Scalar
	VK pairing.G1
}

// GenerateEncKey samples an encryption key pair.
func GenerateEncKey(r io.Reader) (EncKey, DecKey, error) {
	d, err := field.Random(r)
	if err != nil {
		return EncKey{}, DecKey{}, fmt.Errorf("pvss: enc keygen: %w", err)
	}
	if d.IsZero() {
		d = field.One()
	}
	return EncKey{E: pairing.G2Generator().Exp(d)}, DecKey{D: d}, nil
}

// GenerateSigKey samples a tag-signing key pair.
func GenerateSigKey(r io.Reader) (SigKey, error) {
	s, err := field.Random(r)
	if err != nil {
		return SigKey{}, fmt.Errorf("pvss: sig keygen: %w", err)
	}
	return SigKey{S: s, VK: pairing.G1Generator().Exp(s)}, nil
}

// u1 is the auxiliary G2 generator û1 of the CRS.
var u1 = pairing.HashToG2("pvss/u1", nil)

// SoK is the knowledge-of-signature tag on a dealer's contribution
// (Schnorr-style over the simulated G1).
type SoK struct {
	C, S field.Scalar
}

// Script is a (possibly aggregated) PVSS transcript.
type Script struct {
	F  []pairing.G1 // coefficient commitments F_0 … F_d
	U2 pairing.G2   // û1^{a_0}
	A  []pairing.G1 // per-party evaluation commitments, len n
	Y  []pairing.G2 // per-party encrypted shares, len n
	C  []pairing.G1 // per-dealer constant commitments (identity when W=0)
	W  []uint32     // weights, len n
	Sg []SoK        // per-dealer tags (zero value when W=0)
}

func sokMessage(c pairing.G1, dealer int) []byte {
	h := sha256.New()
	h.Write([]byte("pvss/sok"))
	h.Write([]byte{byte(dealer), byte(dealer >> 8)})
	h.Write(c.Bytes())
	return h.Sum(nil)
}

func sokSign(sk SigKey, c pairing.G1, dealer int) SoK {
	h := sha256.New()
	h.Write([]byte("pvss/sok nonce"))
	h.Write(sk.S.Bytes())
	h.Write(c.Bytes())
	k := field.FromBytes(h.Sum(nil))
	r := pairing.G1Generator().Exp(k)
	ch := sha256.New()
	ch.Write(sokMessage(c, dealer))
	ch.Write(sk.VK.Bytes())
	ch.Write(r.Bytes())
	cc := field.FromBytes(ch.Sum(nil))
	return SoK{C: cc, S: k.Add(cc.Mul(sk.S))}
}

func sokVerify(vk pairing.G1, c pairing.G1, dealer int, tag SoK) bool {
	r := pairing.G1Generator().Exp(tag.S).Mul(vk.Exp(tag.C).Inv())
	ch := sha256.New()
	ch.Write(sokMessage(c, dealer))
	ch.Write(vk.Bytes())
	ch.Write(r.Bytes())
	return field.FromBytes(ch.Sum(nil)).Equal(tag.C)
}

// Deal produces a single-dealer script committing `secret`, tagged by the
// 0-based dealer index and its signing key (Alg. 6 Deal).
func Deal(p Params, eks []EncKey, dealer int, sk SigKey, secret field.Scalar, rng io.Reader) (*Script, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(eks) != p.N {
		return nil, fmt.Errorf("pvss: %d encryption keys for n=%d", len(eks), p.N)
	}
	if dealer < 0 || dealer >= p.N {
		return nil, fmt.Errorf("pvss: dealer index %d out of range", dealer)
	}
	f, err := poly.RandomWithSecret(rng, p.Degree, secret)
	if err != nil {
		return nil, fmt.Errorf("pvss: sampling polynomial: %w", err)
	}
	s := &Script{
		F:  make([]pairing.G1, p.Degree+1),
		A:  make([]pairing.G1, p.N),
		Y:  make([]pairing.G2, p.N),
		C:  make([]pairing.G1, p.N),
		W:  make([]uint32, p.N),
		Sg: make([]SoK, p.N),
	}
	g1 := pairing.G1Generator()
	for k := 0; k <= p.Degree; k++ {
		s.F[k] = g1.Exp(f.Coeff(k))
	}
	s.U2 = u1.Exp(secret)
	for i := 0; i < p.N; i++ {
		fi := f.Eval(poly.X(i))
		s.A[i] = g1.Exp(fi)
		s.Y[i] = eks[i].E.Exp(fi)
	}
	s.W[dealer] = 1
	s.C[dealer] = g1.Exp(secret)
	s.Sg[dealer] = sokSign(sk, s.C[dealer], dealer)
	return s, nil
}

// Weights returns a copy of the weight vector (Alg. 6 Weights).
func (s *Script) Weights() []uint32 {
	out := make([]uint32, len(s.W))
	copy(out, s.W)
	return out
}

// WeightCount returns the number of dealers with non-zero weight.
func (s *Script) WeightCount() int {
	c := 0
	for _, w := range s.W {
		if w != 0 {
			c++
		}
	}
	return c
}

// ErrAggregate is returned when two scripts cannot be combined.
var ErrAggregate = errors.New("pvss: incompatible scripts for aggregation")

// AggScripts combines two scripts (Alg. 6 AggScripts): commitments multiply,
// weights add, and dealer tags are carried through.
func AggScripts(a, b *Script) (*Script, error) {
	if len(a.F) != len(b.F) || len(a.A) != len(b.A) {
		return nil, fmt.Errorf("%w: shape mismatch", ErrAggregate)
	}
	n := len(a.A)
	out := &Script{
		F:  make([]pairing.G1, len(a.F)),
		U2: a.U2.Mul(b.U2),
		A:  make([]pairing.G1, n),
		Y:  make([]pairing.G2, n),
		C:  make([]pairing.G1, n),
		W:  make([]uint32, n),
		Sg: make([]SoK, n),
	}
	for k := range a.F {
		out.F[k] = a.F[k].Mul(b.F[k])
	}
	for i := 0; i < n; i++ {
		out.A[i] = a.A[i].Mul(b.A[i])
		out.Y[i] = a.Y[i].Mul(b.Y[i])
		out.W[i] = a.W[i] + b.W[i]
		switch {
		case a.W[i] != 0 && b.W[i] != 0:
			if !a.C[i].Equal(b.C[i]) {
				return nil, fmt.Errorf("%w: conflicting dealer commitment at %d", ErrAggregate, i)
			}
			out.C[i], out.Sg[i] = a.C[i], a.Sg[i]
		case a.W[i] != 0:
			out.C[i], out.Sg[i] = a.C[i], a.Sg[i]
		case b.W[i] != 0:
			out.C[i], out.Sg[i] = b.C[i], b.Sg[i]
		}
	}
	return out, nil
}

// VrfyScript runs the full public validity check of Alg. 6 in batched form:
// shape, the Schwartz–Zippel degree test at a Fiat–Shamir point, per-dealer
// SoK tags, and then the entire remaining algebra — the n per-share checks
// e(g1,Ŷ_j)=e(A_j,ek_j), the secret-binding check e(F₀,û1)=e(g1,û2), and the
// weighted dealer-commitment product Π C_i^{w_i} = F₀ — collapsed into ONE
// random-linear-combination multi-pairing identity:
//
//	∏_j e(A_j^{r_j}, ek_j) · e(F₀^{r_u}, û1) · e((ΠC_i^{w_i}·F₀⁻¹)^{r_c}, û1)
//	    == e(g1, ∏_j Ŷ_j^{r_j} · û2^{r_u})
//
// with coefficients r_j, r_u, r_c derived Fiat–Shamir style from the script,
// the encryption keys and the tag keys. A script failing ANY folded equation
// passes the combined check only if the induced linear relation over the
// independent coefficients vanishes — probability 1/q per coefficient
// (Schwartz–Zippel over Z_q, |q| ≈ 2²⁵⁶), and the adversary cannot steer the
// coefficients because they bind the full transcript. This turns the 2n+2
// standalone pairings of the sequential path into n+2 Miller loops sharing
// one final exponentiation plus a single closing pairing; VrfyScriptSlow
// keeps the unbatched path for differential testing.
//
// The SoK tags are the one component that cannot fold into the product: the
// (c, s) encoding pins each challenge to its recomputed commitment
// R_i = g1^{s_i}·vk_i^{-c_i} through the hash c_i = H(m_i‖vk_i‖R_i), so every
// R_i must be evaluated individually (the known limitation of hash-bound
// Schnorr; batchable variants carry (R, s) on the wire, which would change
// the transcript format). What does batch is their group work: sokVerifyAll
// computes all R_i in one fixed-base pass and the Π C_i^{w_i} consistency
// equation rides in the pairing product above.
func VrfyScript(p Params, eks []EncKey, vks []pairing.G1, s *Script) bool {
	if s == nil || err(p, eks, s) != nil || len(vks) != p.N {
		return false
	}
	if !degreeCheck(p, s) {
		return false
	}
	if !sokVerifyAll(p, vks, s) {
		return false
	}
	g1 := pairing.G1Generator()
	r := rlcCoeffs(p, eks, vks, s)
	// LHS terms: n per-share legs, the û1 leg, and the C-product leg.
	lhsA := make([]pairing.G1, 0, p.N+2)
	lhsB := make([]pairing.G2, 0, p.N+2)
	for j := 0; j < p.N; j++ {
		lhsA = append(lhsA, s.A[j].Exp(r[j]))
		lhsB = append(lhsB, eks[j].E)
	}
	ru, rc := r[p.N], r[p.N+1]
	lhsA = append(lhsA, s.F[0].Exp(ru))
	lhsB = append(lhsB, u1)
	prod := pairing.G1{}
	for i := 0; i < p.N; i++ {
		if s.W[i] != 0 {
			prod = prod.Mul(s.C[i].Exp(field.FromUint64(uint64(s.W[i]))))
		}
	}
	lhsA = append(lhsA, prod.Mul(s.F[0].Inv()).Exp(rc))
	lhsB = append(lhsB, u1)
	// RHS collapses to a single pairing: every folded equation's right side
	// shares the base g1, so ∏ e(g1, Ŷ_j^{r_j})·e(g1, û2^{r_u}) =
	// e(g1, ∏ Ŷ_j^{r_j}·û2^{r_u}); the C-product leg's right side is the
	// identity.
	rhsG2 := s.U2.Exp(ru)
	for j := 0; j < p.N; j++ {
		rhsG2 = rhsG2.Mul(s.Y[j].Exp(r[j]))
	}
	return pairing.MultiPair(lhsA, lhsB).Equal(pairing.Pair(g1, rhsG2))
}

// VrfyScriptSlow is the sequential reference verifier: every pairing check
// of Alg. 6 executed as written, one standalone pairing equation at a time
// (2n+2 pairings). It is semantically equivalent to the batched VrfyScript —
// the differential property test asserts accept-iff-accept over honest and
// adversarial scripts — and exists for that test plus cost-comparison
// benchmarks.
func VrfyScriptSlow(p Params, eks []EncKey, vks []pairing.G1, s *Script) bool {
	if s == nil || err(p, eks, s) != nil || len(vks) != p.N {
		return false
	}
	g1 := pairing.G1Generator()
	if !degreeCheck(p, s) {
		return false
	}
	// e(F0, û1) == e(g1, û2)
	if !pairing.Pair(s.F[0], u1).Equal(pairing.Pair(g1, s.U2)) {
		return false
	}
	// e(g1, Ŷ_j) == e(A_j, ek_j)
	for j := 0; j < p.N; j++ {
		if !pairing.Pair(g1, s.Y[j]).Equal(pairing.Pair(s.A[j], eks[j].E)) {
			return false
		}
	}
	// SoK tags and weighted product of dealer commitments.
	prod := pairing.G1{}
	for i := 0; i < p.N; i++ {
		if s.W[i] == 0 {
			continue
		}
		if !sokVerify(vks[i], s.C[i], i, s.Sg[i]) {
			return false
		}
		prod = prod.Mul(s.C[i].Exp(field.FromUint64(uint64(s.W[i]))))
	}
	return prod.Equal(s.F[0])
}

// degreeCheck is the Schwartz–Zippel degree test shared by both verifiers:
// interpolate the A_i through a random point and compare against the
// coefficient commitments. α is derived by hashing the script so
// verification stays non-interactive.
func degreeCheck(p Params, s *Script) bool {
	alpha := field.FromBytes(s.digest())
	xs := make([]field.Scalar, p.N)
	for i := range xs {
		xs[i] = poly.X(i)
	}
	lag, lerr := poly.LagrangeCoeffs(xs, alpha)
	if lerr != nil {
		return false
	}
	lhs := pairing.G1{}
	for i, a := range s.A {
		lhs = lhs.Mul(a.Exp(lag[i]))
	}
	rhs := pairing.G1{}
	pow := field.One()
	for _, fk := range s.F {
		rhs = rhs.Mul(fk.Exp(pow))
		pow = pow.Mul(alpha)
	}
	return lhs.Equal(rhs)
}

// sokVerifyAll checks every non-zero-weight dealer tag in one pass. The
// commitments R_i = g1^{s_i}·vk_i^{-c_i} are all recomputed against the same
// fixed base g1 (one batched fixed-base multi-exponentiation in a real
// group); the challenge hashes remain per-tag — see the VrfyScript comment.
func sokVerifyAll(p Params, vks []pairing.G1, s *Script) bool {
	for i := 0; i < p.N; i++ {
		if s.W[i] == 0 {
			continue
		}
		if !sokVerify(vks[i], s.C[i], i, s.Sg[i]) {
			return false
		}
	}
	return true
}

// rlcCoeffs derives the p.N+2 random-linear-combination coefficients of the
// batched verifier: one per share leg, one for the û2 leg (index n), one for
// the dealer-commitment-product leg (index n+1). The seed binds the FULL
// transcript — every script component via Bytes(), the encryption keys and
// the tag verification keys — so a malicious dealer fixes its script before
// the coefficients exist (Fiat–Shamir), and a re-keyed board yields fresh
// coefficients.
func rlcCoeffs(p Params, eks []EncKey, vks []pairing.G1, s *Script) []field.Scalar {
	h := sha256.New()
	h.Write([]byte("pvss/rlc"))
	h.Write(s.Bytes())
	for _, ek := range eks {
		h.Write(ek.E.Bytes())
	}
	for _, vk := range vks {
		h.Write(vk.Bytes())
	}
	seed := h.Sum(nil)
	r := make([]field.Scalar, p.N+2)
	var ctr [4]byte
	for j := range r {
		ctr[0], ctr[1], ctr[2], ctr[3] = byte(j>>24), byte(j>>16), byte(j>>8), byte(j)
		hj := sha256.New()
		hj.Write([]byte("pvss/rlc-coeff"))
		hj.Write(seed)
		hj.Write(ctr[:])
		r[j] = field.FromBytes(hj.Sum(nil))
	}
	return r
}

func err(p Params, eks []EncKey, s *Script) error {
	if len(s.F) != p.Degree+1 || len(s.A) != p.N || len(s.Y) != p.N ||
		len(s.C) != p.N || len(s.W) != p.N || len(s.Sg) != p.N || len(eks) != p.N {
		return fmt.Errorf("pvss: malformed script")
	}
	return nil
}

// GetShare decrypts party i's share ĥ1^{F(ω_i)} (Alg. 6 GetShare).
func GetShare(i int, dk DecKey, s *Script) pairing.G2 {
	return s.Y[i].Exp(dk.D.Inv())
}

// VrfyShare checks a decrypted share against the script (Alg. 6 VrfyShare):
// e(A_i, ĥ1) == e(g1, sh).
func VrfyShare(i int, sh pairing.G2, s *Script) bool {
	if i < 0 || i >= len(s.A) {
		return false
	}
	return pairing.Pair(s.A[i], pairing.G2Generator()).Equal(pairing.Pair(pairing.G1Generator(), sh))
}

// AggShares Lagrange-interpolates degree+1 verified shares in the exponent,
// recovering the committed secret S = ĥ1^{F(0)} (Alg. 6 AggShares). The
// degree+1 interpolation shares are selected in sorted party order — not Go
// map order — so the chosen subset, and with it every downstream transcript
// byte, is a deterministic function of the share set.
func AggShares(p Params, shares map[int]pairing.G2) (pairing.G2, error) {
	if len(shares) < p.Degree+1 {
		return pairing.G2{}, fmt.Errorf("pvss: %d shares, need %d", len(shares), p.Degree+1)
	}
	idxs := order.SortedKeys(shares)
	xs := make([]field.Scalar, 0, p.Degree+1)
	vals := make([]pairing.G2, 0, p.Degree+1)
	for _, i := range idxs[:p.Degree+1] {
		xs = append(xs, poly.X(i))
		vals = append(vals, shares[i])
	}
	lag, err := poly.LagrangeCoeffs(xs, field.Zero())
	if err != nil {
		return pairing.G2{}, err
	}
	acc := pairing.G2{}
	for i := range vals {
		acc = acc.Mul(vals[i].Exp(lag[i]))
	}
	return acc, nil
}

// VrfySecret checks a candidate recovered secret against the script
// (Alg. 6 VrfySecret): e(F₀, ĥ1) == e(g1, S).
func VrfySecret(secret pairing.G2, s *Script) bool {
	return pairing.Pair(s.F[0], pairing.G2Generator()).Equal(pairing.Pair(pairing.G1Generator(), secret))
}

// digest hashes the commitment portion of the script (everything the degree
// check must bind).
func (s *Script) digest() []byte {
	h := sha256.New()
	h.Write([]byte("pvss/alpha"))
	for _, f := range s.F {
		h.Write(f.Bytes())
	}
	for _, a := range s.A {
		h.Write(a.Bytes())
	}
	return h.Sum(nil)
}

// Bytes encodes the script. Layout: F | U2 | A | Y | W | for each W[i]≠0:
// C_i, SoK_i. Sizes are deterministic given Params.
func (s *Script) Bytes() []byte {
	var out []byte
	for _, f := range s.F {
		out = append(out, f.Bytes()...)
	}
	out = append(out, s.U2.Bytes()...)
	for _, a := range s.A {
		out = append(out, a.Bytes()...)
	}
	for _, y := range s.Y {
		out = append(out, y.Bytes()...)
	}
	for _, w := range s.W {
		out = append(out, byte(w>>24), byte(w>>16), byte(w>>8), byte(w))
	}
	for i, w := range s.W {
		if w == 0 {
			continue
		}
		out = append(out, s.C[i].Bytes()...)
		out = append(out, s.Sg[i].C.Bytes()...)
		out = append(out, s.Sg[i].S.Bytes()...)
	}
	return out
}

// FromBytes decodes a script produced by Bytes under the same Params.
func FromBytes(p Params, b []byte) (*Script, error) {
	if perr := p.Validate(); perr != nil {
		return nil, perr
	}
	s := &Script{
		F:  make([]pairing.G1, p.Degree+1),
		A:  make([]pairing.G1, p.N),
		Y:  make([]pairing.G2, p.N),
		C:  make([]pairing.G1, p.N),
		W:  make([]uint32, p.N),
		Sg: make([]SoK, p.N),
	}
	r := b
	take := func(n int) ([]byte, error) {
		if len(r) < n {
			return nil, errors.New("pvss: short script encoding")
		}
		out := r[:n]
		r = r[n:]
		return out, nil
	}
	for k := range s.F {
		chunk, terr := take(pairing.G1Size)
		if terr != nil {
			return nil, terr
		}
		g, derr := pairing.G1FromBytes(chunk)
		if derr != nil {
			return nil, derr
		}
		s.F[k] = g
	}
	chunk, terr := take(pairing.G2Size)
	if terr != nil {
		return nil, terr
	}
	u2, derr := pairing.G2FromBytes(chunk)
	if derr != nil {
		return nil, derr
	}
	s.U2 = u2
	for i := range s.A {
		c, e1 := take(pairing.G1Size)
		if e1 != nil {
			return nil, e1
		}
		g, e2 := pairing.G1FromBytes(c)
		if e2 != nil {
			return nil, e2
		}
		s.A[i] = g
	}
	for i := range s.Y {
		c, e1 := take(pairing.G2Size)
		if e1 != nil {
			return nil, e1
		}
		g, e2 := pairing.G2FromBytes(c)
		if e2 != nil {
			return nil, e2
		}
		s.Y[i] = g
	}
	for i := range s.W {
		c, e1 := take(4)
		if e1 != nil {
			return nil, e1
		}
		s.W[i] = uint32(c[0])<<24 | uint32(c[1])<<16 | uint32(c[2])<<8 | uint32(c[3])
	}
	for i, w := range s.W {
		if w == 0 {
			continue
		}
		cb, e1 := take(pairing.G1Size)
		if e1 != nil {
			return nil, e1
		}
		cg, e2 := pairing.G1FromBytes(cb)
		if e2 != nil {
			return nil, e2
		}
		s.C[i] = cg
		sb, e3 := take(2 * field.Size)
		if e3 != nil {
			return nil, e3
		}
		sc, e4 := field.SetCanonical(sb[:field.Size])
		if e4 != nil {
			return nil, e4
		}
		ss, e5 := field.SetCanonical(sb[field.Size:])
		if e5 != nil {
			return nil, e5
		}
		s.Sg[i] = SoK{C: sc, S: ss}
	}
	if len(r) != 0 {
		return nil, errors.New("pvss: trailing bytes in script encoding")
	}
	return s, nil
}
