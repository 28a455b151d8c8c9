// Package threshcoin implements the classic threshold common coin of
// Cachin–Kursawe–Shoup (cited as [17]) WITH a private setup: a trusted
// dealer Shamir-shares a key before the protocol starts. It is the paper's
// foil — the thing that private-setup-free protocols must replace — and the
// reproduction uses it to contextualize Table 1: one round, O(n²) messages,
// O(λn²) bits per coin, but a dealer no deployment wants.
//
// The "BLS-style" share evaluation runs over the simulated pairing group
// (see internal/crypto/pairing): σ_i = H₂(id)^{k_i}, publicly verified via
// e(g1, σ_i) = e(vk_i, H₂(id)), combined by Lagrange interpolation in the
// exponent.
package threshcoin

import (
	"crypto/sha256"
	"fmt"
	"io"

	"repro/internal/crypto/field"
	"repro/internal/crypto/pairing"
	"repro/internal/crypto/poly"
	"repro/internal/proto"
	"repro/internal/wire"
)

// Setup is the public output of the trusted dealer.
type Setup struct {
	N, F    int
	VKs     []pairing.G1 // g1^{k_i}
	GroupVK pairing.G1   // g1^{K(0)}
}

// Deal is the trusted dealer: it returns the public setup and each party's
// secret key share — exactly the private setup the paper eliminates.
func Deal(n, f int, rng io.Reader) (*Setup, []field.Scalar, error) {
	p, err := poly.Random(rng, f)
	if err != nil {
		return nil, nil, fmt.Errorf("threshcoin: dealing: %w", err)
	}
	s := &Setup{N: n, F: f, VKs: make([]pairing.G1, n), GroupVK: pairing.G1Generator().Exp(p.Secret())}
	shares := make([]field.Scalar, n)
	for i := 0; i < n; i++ {
		shares[i] = p.Eval(poly.X(i))
		s.VKs[i] = pairing.G1Generator().Exp(shares[i])
	}
	return s, shares, nil
}

// Output delivers the coin bit.
type Output func(bit byte)

// Coin is one threshold-coin instance on one node.
type Coin struct {
	rt    proto.Runtime
	inst  string
	setup *Setup
	share field.Scalar
	out   Output

	sent   bool
	shares map[int]pairing.G2
	done   bool
}

// New registers a threshold-coin instance.
func New(rt proto.Runtime, inst string, setup *Setup, share field.Scalar, out Output) *Coin {
	c := &Coin{rt: rt, inst: inst, setup: setup, share: share, out: out, shares: make(map[int]pairing.G2)}
	rt.Register(inst, c)
	return c
}

func (c *Coin) base() pairing.G2 {
	return pairing.HashToG2("threshcoin", []byte(c.inst))
}

// Start multicasts this party's coin share.
func (c *Coin) Start() {
	if c.sent {
		return
	}
	c.sent = true
	sh := c.base().Exp(c.share)
	var w wire.Writer
	w.Raw(sh.Bytes())
	c.rt.Multicast(c.inst, w.Bytes())
}

// Handle implements proto.Handler.
func (c *Coin) Handle(from int, body []byte) {
	rd := wire.NewReader(body)
	shB := rd.Raw(pairing.G2Size)
	if rd.Done() != nil {
		c.rt.Reject()
		return
	}
	sh, err := pairing.G2FromBytes(shB)
	if err != nil {
		c.rt.Reject()
		return
	}
	// e(g1, σ_i) == e(vk_i, H(id))
	if !pairing.Pair(pairing.G1Generator(), sh).Equal(pairing.Pair(c.setup.VKs[from], c.base())) {
		c.rt.Reject()
		return
	}
	if _, dup := c.shares[from]; dup || c.done {
		return
	}
	c.shares[from] = sh
	if len(c.shares) < c.setup.F+1 {
		return
	}
	sigma, err := poly.CombineAtZero(c.shares, c.setup.F)
	if err != nil {
		return
	}
	c.done = true
	h := sha256.Sum256(sigma.Bytes())
	c.out(h[0] & 1)
}

// Factory adapts the threshold coin as an ABA CoinFactory — the
// "private-setup ABA" comparator.
func Factory(rt proto.Runtime, prefix string, setup *Setup, share field.Scalar) func(round int, out func(byte)) func() {
	return func(round int, out func(byte)) func() {
		c := New(rt, fmt.Sprintf("%s/r%d", prefix, round), setup, share, out)
		return c.Start
	}
}
