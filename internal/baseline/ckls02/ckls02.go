// Package ckls02 is a shape-faithful facsimile of the CKLS02 common coin
// (Cachin–Kursawe–Lysyanskaya–Strobl, cited as [15]) used as the
// O(λn⁴)-bits baseline in Table 1.
//
// Structure (following CR93's blueprint with CKLS02's cheaper AVSS): every
// party AVSS-shares an n-vector of random secrets (an O(λn)-bit payload, so
// each AVSS costs O(λn³) bits through the Bracha echo of the ciphertext);
// completed sharings are gathered into a core-set via n reliable broadcasts
// of index sets (the step the paper's WCS replaces); core secrets are
// reconstructed and the coin is the low bit of their sum. Reasonable
// fairness — not perfect agreement — mirrors the original.
//
// The facsimile reproduces the asymptotic drivers (who broadcasts what, of
// which size, via which primitive), not the original's exact vote logic;
// see README.md (facsimile scope).
package ckls02

import (
	"crypto/sha256"
	"fmt"

	"repro/internal/core/avss"
	"repro/internal/core/rbc"
	"repro/internal/crypto/field"
	"repro/internal/order"
	"repro/internal/pki"
	"repro/internal/proto"
	"repro/internal/wire"
)

// Output delivers the coin bit.
type Output func(bit byte)

// Coin is one CKLS02-style coin instance on one node.
type Coin struct {
	rt   proto.Runtime
	inst string
	keys *pki.Keyring
	out  Output

	avsses    []*avss.AVSS
	completed map[int]bool
	setRBCs   []*rbc.RBC
	setSent   bool
	pendSets  map[int]map[int]bool // broadcaster -> set awaiting local completion
	accepted  map[int]bool
	core      map[int]bool
	requested map[int]bool
	recVals   map[int]field.Scalar
	recDone   map[int]bool
	done      bool
}

const msgRecRequest byte = 1

// New registers a CKLS02-style coin.
func New(rt proto.Runtime, inst string, keys *pki.Keyring, out Output) *Coin {
	c := &Coin{
		rt:        rt,
		inst:      inst,
		keys:      keys,
		out:       out,
		avsses:    make([]*avss.AVSS, rt.N()),
		completed: make(map[int]bool),
		setRBCs:   make([]*rbc.RBC, rt.N()),
		pendSets:  make(map[int]map[int]bool),
		accepted:  make(map[int]bool),
		requested: make(map[int]bool),
		recVals:   make(map[int]field.Scalar),
		recDone:   make(map[int]bool),
	}
	for j := 0; j < rt.N(); j++ {
		j := j
		c.avsses[j] = avss.New(rt, fmt.Sprintf("%s/av/%d", inst, j), keys, j,
			func(avss.ShareOutput) { c.onShared(j) },
			func(m []byte) { c.onRec(j, m) })
		c.setRBCs[j] = rbc.New(rt, fmt.Sprintf("%s/set/%d", inst, j), j,
			func(v []byte) { c.onSet(j, v) })
	}
	rt.Register(inst+"/rr", proto.HandlerFunc(c.onRecRequest))
	return c
}

// Start deals this party's n-vector of secrets.
func (c *Coin) Start() {
	payload := make([]byte, 0, c.rt.N()*field.Size)
	for i := 0; i < c.rt.N(); i++ {
		s, err := field.Random(c.rt.RandReader())
		if err != nil {
			return
		}
		payload = append(payload, s.Bytes()...)
	}
	c.avsses[c.rt.Self()].StartDealer(payload)
}

func (c *Coin) onShared(j int) {
	c.completed[j] = true
	if !c.setSent && len(c.completed) >= c.rt.N()-c.rt.F() {
		c.setSent = true
		var w wire.Writer
		w.BitSet(c.completed, c.rt.N())
		c.setRBCs[c.rt.Self()].Start(w.Bytes())
	}
	c.reexamine()
	c.maybeStartRec(j)
}

// onSet receives a reliably broadcast completion set (the CR93-style
// core-set gather the paper's WCS replaces).
func (c *Coin) onSet(j int, v []byte) {
	rd := wire.NewReader(v)
	set := rd.BitSet(c.rt.N())
	if rd.Done() != nil || len(set) < c.rt.N()-c.rt.F() {
		return
	}
	c.pendSets[j] = set
	c.reexamine()
}

// reexamine accepts broadcast sets whose AVSSes all completed locally; the
// union of the first n−f accepted sets becomes the core.
func (c *Coin) reexamine() {
	for _, j := range order.SortedKeys(c.pendSets) {
		set := c.pendSets[j]
		ok := true
		for k := range set {
			if !c.completed[k] {
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
			for k := range c.completed {
				c.core[k] = true
			}
			for _, k := range order.SortedKeys(c.core) {
				var w wire.Writer
				w.Byte(msgRecRequest)
				w.Int(k)
				c.rt.Multicast(c.inst+"/rr", w.Bytes())
			}
			// Every core reconstruction may already have finished.
			c.maybeOutput()
		}
	}
}

func (c *Coin) onRecRequest(from int, body []byte) {
	rd := wire.NewReader(body)
	if rd.Byte() != msgRecRequest {
		c.rt.Reject()
		return
	}
	k := rd.Int()
	if rd.Done() != nil || k < 0 || k >= c.rt.N() {
		c.rt.Reject()
		return
	}
	c.requested[k] = true
	c.maybeStartRec(k)
}

func (c *Coin) maybeStartRec(k int) {
	if !c.requested[k] {
		return
	}
	if a := c.avsses[k]; a.Shared() != nil {
		a.StartRec()
	}
}

func (c *Coin) onRec(k int, m []byte) {
	if c.recDone[k] {
		return
	}
	c.recDone[k] = true
	if len(m) == c.rt.N()*field.Size {
		// The coin uses the first secret of each vector.
		if s, err := field.SetCanonical(m[:field.Size]); err == nil {
			c.recVals[k] = s
		}
	}
	c.maybeOutput()
}

func (c *Coin) maybeOutput() {
	if c.done || c.core == nil {
		return
	}
	sum := field.Zero()
	for _, k := range order.SortedKeys(c.core) {
		if !c.recDone[k] {
			return
		}
		sum = sum.Add(c.recVals[k])
	}
	c.done = true
	h := sha256.Sum256(sum.Bytes())
	c.out(h[0] & 1)
}
