// Package wcs implements the paper's weak core-set selection (§5.2,
// Alg. 3) — the new primitive that replaces the O(n) reliable broadcasts of
// classical core-set selection (CR93, AJM+21) with two multicast rounds plus
// signatures, at O(n²) messages and O(λn³) bits.
//
// Each party inputs a monotonically growing set of indices (here: completed
// AVSS instances) and outputs a set; the guarantee is deliberately weak —
// only f+1 honest parties are promised a superset of some (n−f)-sized
// core-set — which is exactly enough for the Coin protocol, because those
// f+1 parties can reconstruct the winning VRF and multicast it to everyone
// (§5.2 "(f+1)-Supporting Core-Set").
package wcs

import (
	"repro/internal/crypto/sig"
	"repro/internal/order"
	"repro/internal/pki"
	"repro/internal/proto"
	"repro/internal/wire"
)

// Message tags.
const (
	msgLock byte = iota + 1
	msgConfirm
	msgCommit
)

// Output is the delivery callback: the party's output index set Ŝ.
type Output func(set map[int]bool)

// WCS is one weak core-set selection instance on one node.
type WCS struct {
	rt   proto.Runtime
	inst string
	keys *pki.Keyring
	out  Output

	s      map[int]bool         // local input set S (monotone)
	snap   map[int]bool         // S̃, the multicast snapshot
	snapB  []byte               // canonical bitmap of S̃
	locks  map[int]map[int]bool // sender -> their lock set, awaiting S ⊇ S̃_j
	signed map[int]bool         // senders whose lock we already confirmed
	sigma  sig.Quorum           // confirmations of our snapshot; Commit at n−f
	done   bool
}

// New registers a WCS instance. Feed the input set via Add; the callback
// fires once with Ŝ.
func New(rt proto.Runtime, inst string, keys *pki.Keyring, out Output) *WCS {
	w := &WCS{
		rt:     rt,
		inst:   inst,
		keys:   keys,
		out:    out,
		s:      make(map[int]bool),
		locks:  make(map[int]map[int]bool),
		signed: make(map[int]bool),
	}
	rt.Register(inst, w)
	return w
}

// Add grows the local input set S (Alg. 3's monotone input). When |S|
// first reaches n−f the snapshot is taken and Lock is multicast; afterwards
// growth keeps unlocking pending Confirm obligations.
func (w *WCS) Add(j int) {
	if j < 0 || j >= w.rt.N() || w.s[j] {
		return
	}
	w.s[j] = true
	if w.snap == nil && len(w.s) >= w.rt.N()-w.rt.F() {
		w.snap = make(map[int]bool, len(w.s))
		for k := range w.s {
			w.snap[k] = true
		}
		var enc wire.Writer
		enc.BitSet(w.snap, w.rt.N())
		w.snapB = enc.Bytes()
		var m wire.Writer
		m.Byte(msgLock)
		m.Raw(w.snapB)
		w.rt.Multicast(w.inst, m.Bytes())
	}
	w.reexamineLocks()
}

// Set reports whether the local input set currently contains j.
func (w *WCS) Set(j int) bool { return w.s[j] }

// sigMsg is what a party signs for Σ: its S contains this lock set.
func sigMsg(inst string, setBitmap []byte) []byte { return sig.Digest("wcs/confirm", inst, setBitmap) }

// Handle implements proto.Handler.
func (w *WCS) Handle(from int, body []byte) {
	rd := wire.NewReader(body)
	switch rd.Byte() {
	case msgLock:
		set := rd.BitSet(w.rt.N())
		if rd.Done() != nil || set == nil {
			w.rt.Reject()
			return
		}
		if _, dup := w.locks[from]; dup || w.signed[from] {
			return
		}
		if len(set) < w.rt.N()-w.rt.F() {
			w.rt.Reject()
			return
		}
		w.locks[from] = set
		w.reexamineLocks()
	case msgConfirm:
		sb := rd.Raw(sig.Size)
		if rd.Done() != nil || w.snapB == nil {
			w.rt.Reject()
			return
		}
		fresh := !w.sigma.Has(from)
		if !w.keys.Collect(&w.sigma, from, sigMsg(w.inst, w.snapB), sb) {
			w.rt.Reject()
			return
		}
		if fresh && w.sigma.Len() == w.rt.N()-w.rt.F() {
			var m wire.Writer
			m.Byte(msgCommit)
			m.Raw(w.snapB)
			w.sigma.Encode(&m)
			w.rt.Multicast(w.inst, m.Bytes())
		}
	case msgCommit:
		setB := rd.Raw((w.rt.N() + 7) / 8)
		q, ok := sig.DecodeQuorum(rd, w.rt.N())
		if !ok || rd.Done() != nil || setB == nil {
			w.rt.Reject()
			return
		}
		if w.done {
			return
		}
		if !w.keys.VerifyQuorum(sigMsg(w.inst, setB), &q, w.rt.N()-w.rt.F()) {
			w.rt.Reject()
			return
		}
		w.done = true
		outSet := make(map[int]bool, len(w.s))
		for k := range w.s {
			outSet[k] = true
		}
		w.out(outSet)
	default:
		w.rt.Reject()
	}
}

// reexamineLocks confirms any stored lock whose set is now a subset of S
// (Alg. 3 line 6's "wait for S̃_j ⊆ S").
func (w *WCS) reexamineLocks() {
	for _, from := range order.SortedKeys(w.locks) {
		set := w.locks[from]
		if w.signed[from] {
			continue
		}
		subset := true
		for k := range set {
			if !w.s[k] {
				subset = false
				break
			}
		}
		if !subset {
			continue
		}
		w.signed[from] = true
		delete(w.locks, from)
		var enc wire.Writer
		enc.BitSet(set, w.rt.N())
		s := w.keys.Sign(sigMsg(w.inst, enc.Bytes()))
		var m wire.Writer
		m.Byte(msgConfirm)
		m.Raw(s.Bytes())
		w.rt.Send(w.inst, from, m.Bytes())
	}
}
