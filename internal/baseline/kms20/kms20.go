// Package kms20 is a shape-faithful facsimile of the Kokoris-Kogias et al.
// (CCS'20) "eventually efficient" common coin — the O(n)-rounds row of
// Table 1: an expensive, linear-round bootstrap that distributes shares of
// an aggregate key, after which each coin costs only O(λn²) bits and one
// round.
//
// Bootstrap: parties AVSS-share random scalars *sequentially* — dealer i
// waits until i prior sharings completed locally before dealing — which
// reproduces the original's Θ(n) asynchronous-round chain (their chain came
// from leader-by-leader "eventual" agreement; ours from explicit
// sequencing; the measured round growth is the point). Each party's
// aggregate key share is the sum of its shares from the first n−f dealers.
//
// Per-coin: BLS-style share reveal under the aggregate key (as in
// threshcoin, but with the DKG'd key). Share verification against Pedersen
// commitments is omitted — the facsimile is an honest-execution cost model,
// not a hardened implementation (see README.md, facsimile scope). The original's
// bootstrap is Θ(λn⁴) bits with its high-threshold AVSS; ours inherits the
// paper's cheaper AVSS, so the benchmarks report the measured (smaller)
// constant alongside the preserved Θ(n)-round shape.
package kms20

import (
	"crypto/sha256"
	"fmt"

	"repro/internal/core/avss"
	"repro/internal/crypto/field"
	"repro/internal/crypto/pairing"
	"repro/internal/crypto/poly"
	"repro/internal/order"
	"repro/internal/pki"
	"repro/internal/proto"
	"repro/internal/wire"
)

// Key is the bootstrap output: this party's scalar share of the aggregate
// key (the sum of the core dealers' secrets).
type Key struct {
	Share field.Scalar
	Core  []int
}

// Bootstrap runs the linear-round setup on one node.
type Bootstrap struct {
	rt   proto.Runtime
	inst string
	keys *pki.Keyring
	out  func(Key)

	avsses    []*avss.AVSS
	myShares  map[int]field.Scalar
	completed map[int]bool
	dealt     bool
	done      bool
}

// NewBootstrap registers the bootstrap instance.
func NewBootstrap(rt proto.Runtime, inst string, keys *pki.Keyring, out func(Key)) *Bootstrap {
	b := &Bootstrap{
		rt:        rt,
		inst:      inst,
		keys:      keys,
		out:       out,
		avsses:    make([]*avss.AVSS, rt.N()),
		myShares:  make(map[int]field.Scalar),
		completed: make(map[int]bool),
	}
	for j := 0; j < rt.N(); j++ {
		j := j
		b.avsses[j] = avss.New(rt, fmt.Sprintf("%s/av/%d", inst, j), keys, j,
			func(avss.ShareOutput) { b.onShared(j) }, nil)
		// Key shares can arrive after the sharing output under reordering;
		// the hook keeps the aggregate-share computation complete.
		b.avsses[j].OnKeyShare(func() {
			shA, _, ok := b.avsses[j].KeyShare()
			if ok {
				b.myShares[j] = shA
				b.maybeFinish()
			}
		})
	}
	return b
}

// Start begins the sequential dealing chain.
func (b *Bootstrap) Start() {
	b.maybeDeal()
}

// maybeDeal deals this party's secret once `self` prior sharings completed
// — the Θ(n)-round sequencing.
func (b *Bootstrap) maybeDeal() {
	if b.dealt || len(b.completed) < b.rt.Self() {
		return
	}
	b.dealt = true
	s, err := field.Random(b.rt.RandReader())
	if err != nil {
		return
	}
	b.avsses[b.rt.Self()].StartDealer(s.Bytes())
}

func (b *Bootstrap) onShared(j int) {
	if b.completed[j] {
		return
	}
	b.completed[j] = true
	b.maybeDeal()
	b.maybeFinish()
}

// maybeFinish emits the aggregate key share once n−f sharings completed
// and our shares for the lowest-indexed core are all present (they may
// trail the completions under reordering).
func (b *Bootstrap) maybeFinish() {
	if b.done || len(b.completed) < b.rt.N()-b.rt.F() {
		return
	}
	// Core = the lowest-indexed n−f completed dealers (deterministic
	// enough for a cost model; the original agrees via its own means).
	idxs := order.SortedKeys(b.completed)
	idxs = idxs[:b.rt.N()-b.rt.F()]
	sum := field.Zero()
	for _, k := range idxs {
		sh, ok := b.myShares[k]
		if !ok {
			return // wait for the chain to deliver our shares
		}
		sum = sum.Add(sh)
	}
	b.done = true
	b.out(Key{Share: sum, Core: idxs})
}

// Coin is one post-bootstrap coin: a single share-reveal round.
type Coin struct {
	rt     proto.Runtime
	inst   string
	f      int
	key    Key
	out    func(byte)
	sent   bool
	shares map[int]pairing.G2
	done   bool
}

// NewCoin registers a per-coin instance under the bootstrapped key.
func NewCoin(rt proto.Runtime, inst string, key Key, out func(byte)) *Coin {
	c := &Coin{rt: rt, inst: inst, f: rt.F(), key: key, out: out, shares: make(map[int]pairing.G2)}
	rt.Register(inst, c)
	return c
}

func (c *Coin) base() pairing.G2 {
	return pairing.HashToG2("kms20", []byte(c.inst))
}

// Start multicasts this party's evaluation share.
func (c *Coin) Start() {
	if c.sent {
		return
	}
	c.sent = true
	var w wire.Writer
	w.Raw(c.base().Exp(c.key.Share).Bytes())
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
	if _, dup := c.shares[from]; dup || c.done {
		return
	}
	c.shares[from] = sh
	if len(c.shares) < c.f+1 {
		return
	}
	// Interpolate from the f+1 lowest party indices: map-order selection
	// would pick a different share subset on every replay of the same seed
	// (the pvss.AggShares bug class, PR 4).
	xs := make([]field.Scalar, 0, c.f+1)
	vals := make([]pairing.G2, 0, c.f+1)
	for _, i := range order.SortedKeys(c.shares) {
		xs = append(xs, poly.X(i))
		vals = append(vals, c.shares[i])
		if len(xs) == c.f+1 {
			break
		}
	}
	lag, err := poly.LagrangeCoeffs(xs, field.Zero())
	if err != nil {
		return
	}
	sigma := pairing.G2{}
	for i := range vals {
		sigma = sigma.Mul(vals[i].Exp(lag[i]))
	}
	c.done = true
	h := sha256.Sum256(sigma.Bytes())
	c.out(h[0] & 1)
}
