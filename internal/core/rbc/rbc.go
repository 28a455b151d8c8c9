// Package rbc implements Bracha's reliable broadcast (cited as [14] and
// summarized in §4 of the paper): a designated sender disseminates one value
// with Agreement, Totality and Validity under n ≥ 3f+1.
//
// bracha.go holds the echo/ready quorum rule itself, the one copy of its
// f+1 and 2f+1 thresholds. Six protocols count on it: RBC here (keyed by
// the value), AVID (by Merkle root), AVSS's ciphertext tail (Alg. 1),
// Seeding's seed tail (Alg. 7), and the READY half alone in ABA's FINISH
// gadget (by bit) and VBA's Decide gadget (by value hash).
//
// The companion file avid.go provides the erasure-coded variant with Merkle
// proofs (Cachin–Tessaro-style) that the AJM+21 baseline uses; its
// O(log n)-factor overhead on small payloads is one of the costs the paper's
// WCS-based design eliminates.
package rbc

import (
	"repro/internal/proto"
	"repro/internal/wire"
)

// Message tags.
const (
	msgPropose byte = iota + 1
	msgEcho
	msgReady
)

// Output is the delivery callback signature: the broadcast value.
type Output func(value []byte)

// RBC is one reliable-broadcast instance on one node.
type RBC struct {
	rt     proto.Runtime
	inst   string
	sender int
	out    Output

	echoed bool
	bracha Bracha[string] // keyed by the value
}

// New registers a reliable-broadcast instance. sender is the 0-based
// designated broadcaster; every party (sender included) must construct the
// instance to participate. The callback fires exactly once, on delivery.
func New(rt proto.Runtime, inst string, sender int, out Output) *RBC {
	r := &RBC{
		rt:     rt,
		inst:   inst,
		sender: sender,
		out:    out,
		bracha: NewBracha[string](rt.F()),
	}
	rt.Register(inst, r)
	return r
}

// Start broadcasts the value; only the designated sender calls it.
func (r *RBC) Start(value []byte) {
	if r.rt.Self() != r.sender {
		return
	}
	var w wire.Writer
	w.Byte(msgPropose)
	w.Blob(value)
	r.rt.Multicast(r.inst, w.Bytes())
}

// Handle implements proto.Handler.
func (r *RBC) Handle(from int, body []byte) {
	rd := wire.NewReader(body)
	switch rd.Byte() {
	case msgPropose:
		v := rd.Blob()
		if rd.Done() != nil || from != r.sender || r.echoed {
			r.rt.Reject()
			return
		}
		r.echoed = true
		var w wire.Writer
		w.Byte(msgEcho)
		w.Blob(v)
		r.rt.Multicast(r.inst, w.Bytes())
	case msgEcho:
		v := rd.Blob()
		if rd.Done() != nil {
			r.rt.Reject()
			return
		}
		if r.bracha.Echo(from, string(v)) {
			r.sendReady(v)
		}
	case msgReady:
		v := rd.Blob()
		if rd.Done() != nil {
			r.rt.Reject()
			return
		}
		ready, deliver := r.bracha.Ready(from, string(v))
		if ready {
			r.sendReady(v)
		}
		if deliver {
			r.out(v)
		}
	default:
		r.rt.Reject()
	}
}

func (r *RBC) sendReady(v []byte) {
	var w wire.Writer
	w.Byte(msgReady)
	w.Blob(v)
	r.rt.Multicast(r.inst, w.Bytes())
}
