// Package ajm21 is a shape-faithful facsimile of the Abraham et al.
// (PODC'21) common-randomness layer — the O(λn³ log n)-bits row of Table 1.
//
// Structure: every party commits an O(λn)-bit aggregatable-PVSS script by
// reliably broadcasting it through the erasure-coded, Merkle-authenticated
// AVID broadcast (the log n source); a CR93-style gather of completion sets
// (again via AVID broadcasts) fixes a core; parties then reveal their
// decryption shares for the core scripts in one O(λn)-bit multicast each,
// and the coin is derived from the combined core secrets.
//
// Everything the paper improves is visible here: committing O(λn) bits per
// party through a broadcast channel costs Θ(λn² log n) each (Merkle
// branches on n² chunk echoes), totalling Θ(λn³ log n) — versus the paper's
// AVSS+WCS route at Θ(λn³). See README.md for facsimile scope.
package ajm21

import (
	"crypto/sha256"
	"fmt"

	"repro/internal/core/rbc"
	"repro/internal/crypto/field"
	"repro/internal/crypto/pairing"
	"repro/internal/crypto/pvss"
	"repro/internal/order"
	"repro/internal/pki"
	"repro/internal/proto"
	"repro/internal/wire"
)

// Output delivers the coin bit.
type Output func(bit byte)

// Coin is one AJM21-style coin instance on one node.
type Coin struct {
	rt     proto.Runtime
	inst   string
	keys   *pki.Keyring
	params pvss.Params
	out    Output

	scripts   map[int]*pvss.Script
	scriptBCs []*rbc.AVID
	setBCs    []*rbc.AVID
	setSent   bool
	pendSets  map[int]map[int]bool
	accepted  map[int]bool
	core      map[int]bool
	revealSnt bool
	reveals   map[int]map[int]pairing.G2 // script owner -> revealer -> share
	done      bool
}

// New registers an AJM21-style coin.
func New(rt proto.Runtime, inst string, keys *pki.Keyring, out Output) *Coin {
	c := &Coin{
		rt:        rt,
		inst:      inst,
		keys:      keys,
		params:    pvss.Params{N: rt.N(), Degree: 2 * rt.F()},
		out:       out,
		scripts:   make(map[int]*pvss.Script),
		scriptBCs: make([]*rbc.AVID, rt.N()),
		setBCs:    make([]*rbc.AVID, rt.N()),
		pendSets:  make(map[int]map[int]bool),
		accepted:  make(map[int]bool),
		reveals:   make(map[int]map[int]pairing.G2),
	}
	for j := 0; j < rt.N(); j++ {
		j := j
		c.scriptBCs[j] = rbc.NewAVID(rt, fmt.Sprintf("%s/sb/%d", inst, j), j,
			func(v []byte) { c.onScript(j, v) })
		c.setBCs[j] = rbc.NewAVID(rt, fmt.Sprintf("%s/gb/%d", inst, j), j,
			func(v []byte) { c.onSet(j, v) })
	}
	rt.Register(inst+"/rv", proto.HandlerFunc(c.onReveal))
	return c
}

// Start deals and broadcasts this party's PVSS script.
func (c *Coin) Start() {
	secret, err := field.Random(c.rt.RandReader())
	if err != nil {
		return
	}
	script, err := pvss.Deal(c.params, c.keys.Board.EncKeys(), c.rt.Self(), c.keys.PVSSSig, secret, c.rt.RandReader())
	if err != nil {
		return
	}
	c.scriptBCs[c.rt.Self()].Start(script.Bytes())
}

func (c *Coin) onScript(j int, v []byte) {
	s, err := pvss.FromBytes(c.params, v)
	if err != nil || !pvss.VrfyScript(c.params, c.keys.Board.EncKeys(), c.keys.Board.PVSSVKs(), s) {
		return
	}
	c.scripts[j] = s
	if !c.setSent && len(c.scripts) >= c.rt.N()-c.rt.F() {
		c.setSent = true
		set := make(map[int]bool, len(c.scripts))
		for k := range c.scripts {
			set[k] = true
		}
		var w wire.Writer
		w.BitSet(set, c.rt.N())
		c.setBCs[c.rt.Self()].Start(w.Bytes())
	}
	c.reexamine()
	c.maybeReveal()
}

func (c *Coin) onSet(j int, v []byte) {
	rd := wire.NewReader(v)
	set := rd.BitSet(c.rt.N())
	if rd.Done() != nil || len(set) < c.rt.N()-c.rt.F() {
		return
	}
	c.pendSets[j] = set
	c.reexamine()
}

func (c *Coin) reexamine() {
	for _, j := range order.SortedKeys(c.pendSets) {
		set := c.pendSets[j]
		ok := true
		for k := range set {
			if c.scripts[k] == nil {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		delete(c.pendSets, j)
		c.accepted[j] = true
		if c.core == nil && len(c.accepted) >= c.rt.N()-c.rt.F() {
			c.core = make(map[int]bool)
			for k := range c.scripts {
				c.core[k] = true
			}
			c.maybeReveal()
		}
	}
}

// maybeReveal multicasts this party's decryption shares for every core
// script in one message (O(λn) bits).
func (c *Coin) maybeReveal() {
	if c.revealSnt || c.core == nil {
		return
	}
	for k := range c.core {
		if c.scripts[k] == nil {
			return
		}
	}
	c.revealSnt = true
	var w wire.Writer
	w.Int(len(c.core))
	for _, k := range order.SortedKeys(c.core) {
		w.Int(k)
		sh := pvss.GetShare(c.rt.Self(), c.keys.PVSSDec, c.scripts[k])
		w.Raw(sh.Bytes())
	}
	c.rt.Multicast(c.inst+"/rv", w.Bytes())
}

func (c *Coin) onReveal(from int, body []byte) {
	rd := wire.NewReader(body)
	count := rd.Int()
	if rd.Err() != nil || count < 0 || count > c.rt.N() {
		c.rt.Reject()
		return
	}
	type item struct {
		owner int
		share pairing.G2
	}
	items := make([]item, 0, count)
	for i := 0; i < count; i++ {
		owner := rd.Int()
		shB := rd.Raw(pairing.G2Size)
		if rd.Err() != nil || owner < 0 || owner >= c.rt.N() {
			c.rt.Reject()
			return
		}
		sh, err := pairing.G2FromBytes(shB)
		if err != nil {
			c.rt.Reject()
			return
		}
		items = append(items, item{owner, sh})
	}
	if rd.Done() != nil {
		c.rt.Reject()
		return
	}
	for _, it := range items {
		script := c.scripts[it.owner]
		if script == nil || !pvss.VrfyShare(from, it.share, script) {
			continue
		}
		m := c.reveals[it.owner]
		if m == nil {
			m = make(map[int]pairing.G2)
			c.reveals[it.owner] = m
		}
		m[from] = it.share
	}
	c.maybeOutput()
}

func (c *Coin) maybeOutput() {
	if c.done || c.core == nil {
		return
	}
	acc := pairing.G2{}
	for _, k := range order.SortedKeys(c.core) {
		shares := c.reveals[k]
		if len(shares) < c.params.Degree+1 {
			return
		}
		secret, err := pvss.AggShares(c.params, shares)
		if err != nil {
			return
		}
		acc = acc.Mul(secret)
	}
	c.done = true
	h := sha256.Sum256(acc.Bytes())
	c.out(h[0] & 1)
}
