// Package vba implements validated asynchronous Byzantine agreement
// (Definition 7, §7.2) in the style of Abraham–Malkhi–Spiegelman (cited as
// [5]), with the paper's Election primitive replacing the threshold-PRF
// leader election — which is precisely the paper's Theorem 6: a
// private-setup-free VBA with expected O(n³) messages, O(λn³) bits and
// expected constant rounds under bulletin PKI.
//
// # View structure
//
// Each view runs the 4-stage provable broadcast (PB) recapped in §7.2:
// every party broadcasts its proposal through stages 1..4, collecting after
// each stage a quorum certificate of n−f signed acks ("key" after stage 2's
// justification, "lock" after 3, "commit" after 4 in AMS19 terminology; here
// certs are numbered by stage). Completing stage 4 yields a completeness
// proof that f+1 honest parties hold the commit certificate; the party
// multicasts Done. After n−f Dones a Ready barrier freezes the view (parties
// stop acking), the Election runs, and parties exchange ViewChange messages
// describing the elected leader's progress: a stage ≥3 certificate decides;
// stage 2 locks the value; stage ≥1 adopts it as the key re-proposed next
// view. Quorum-certificate uniqueness per (view, leader) plus the
// lock/key rules give safety; the 1/3-fair Election gives expected O(1)
// views.
//
// Since threshold signatures need a private setup, certificates are n−f
// concatenated Schnorr signatures — the O(n) factor the paper accepts in
// §7.2 ("trivially concatenating digital signatures … in the bulletin PKI
// setting").
//
// # Halting
//
// A decision is propagated with Decide messages carrying the deciding
// certificate. A party adopts a decision after f+1 distinct senders vouch
// for the same value (at least one is honest and fully verified the elected
// leader), and halts after 2f+1, which frees laggards from depending on
// halted parties' election participation. Decide is the READY of
// rbc.Bracha keyed by the value hash, as FINISH is in ABA.
package vba

import (
	"crypto/sha256"
	"fmt"

	"repro/internal/core/coin"
	"repro/internal/core/election"
	"repro/internal/core/rbc"
	"repro/internal/crypto/sig"
	"repro/internal/order"
	"repro/internal/pki"
	"repro/internal/proto"
	"repro/internal/wire"
)

// Predicate is the external-validity check Q_ID.
type Predicate func(value []byte) bool

// Output delivers the decided value exactly once, at halting.
type Output func(value []byte)

// Config tunes the embedded Election instances.
type Config struct {
	Coin coin.Config
}

// Message tags.
const (
	msgPBSend byte = iota + 1
	msgPBAck
	msgDone
	msgReady
	msgViewChange
	msgDecide
)

const maxViews = 64 // circuit breaker; expected views is O(1)

type progress struct {
	stage int
	value []byte
	cert  sig.Quorum
}

type viewState struct {
	view int

	// Own provable broadcast.
	myValue []byte
	myStage int // highest stage with a collected certificate
	myCerts [5]sig.Quorum
	acks    [5]map[int]bool
	sent    [5]bool
	doneSnt bool

	// As receiver.
	pinned     map[int][]byte // leader -> pinned value
	ackedStage map[int]int    // leader -> highest acked stage
	seen       map[int]*progress
	doneSet    map[int]bool
	ackStopped bool

	readySent bool
	readyRecv map[int]bool

	elect     *election.Election
	electGo   bool
	leader    *int
	vcSent    bool
	vcRecv    map[int]*progress // sender -> reported progress for the leader
	vcHas     map[int]bool
	processed bool
}

func newViewState(v int) *viewState {
	vs := &viewState{
		view:       v,
		pinned:     make(map[int][]byte),
		ackedStage: make(map[int]int),
		seen:       make(map[int]*progress),
		doneSet:    make(map[int]bool),
		readyRecv:  make(map[int]bool),
		vcRecv:     make(map[int]*progress),
		vcHas:      make(map[int]bool),
	}
	for s := 1; s <= 4; s++ {
		vs.acks[s] = make(map[int]bool)
	}
	return vs
}

type keyInfo struct {
	view   int
	leader int
	stage  int
	value  []byte
	cert   sig.Quorum
}

type lockInfo struct {
	view  int
	value []byte
}

// VBA is one validated-BA instance on one node.
type VBA struct {
	rt   proto.Runtime
	inst string
	keys *pki.Keyring
	pred Predicate
	cfg  Config
	out  Output

	input   []byte
	started bool
	view    int
	views   map[int]*viewState
	elected map[int]int // completed elections: view -> leader

	key  *keyInfo
	lock *lockInfo

	pendPB map[int][]pend // future-view PBSend/Ack buffers
	pendVC map[int][]pend

	decided    []byte
	decideSent bool
	decides    rbc.Bracha[string] // keyed by the value hash
	halted     bool

	// DecidedView records the view of first decision (for experiments).
	DecidedView int
}

type pend struct {
	from int
	body []byte
}

// New registers a VBA instance. pred must be non-nil; Start supplies the
// party's proposal.
func New(rt proto.Runtime, inst string, keys *pki.Keyring, pred Predicate, cfg Config, out Output) *VBA {
	v := &VBA{
		rt:      rt,
		inst:    inst,
		keys:    keys,
		pred:    pred,
		cfg:     cfg,
		out:     out,
		views:   make(map[int]*viewState),
		elected: make(map[int]int),
		pendPB:  make(map[int][]pend),
		pendVC:  make(map[int][]pend),
		decides: rbc.NewBracha[string](rt.F()),
	}
	rt.Register(inst, v)
	return v
}

// Start activates the instance with this party's externally valid proposal.
func (v *VBA) Start(input []byte) {
	if v.started {
		return
	}
	v.started = true
	v.input = append([]byte(nil), input...)
	v.enterView(1)
}

func (v *VBA) state(view int) *viewState {
	vs := v.views[view]
	if vs == nil {
		vs = newViewState(view)
		v.views[view] = vs
	}
	return vs
}

func valueHash(value []byte) []byte {
	h := sha256.Sum256(value)
	return h[:]
}

func (v *VBA) ackMsg(view, leader, stage int, vh []byte) []byte {
	h := sha256.New()
	h.Write([]byte("vba/ack"))
	h.Write([]byte(v.inst))
	var meta [12]byte
	put32(meta[0:], view)
	put32(meta[4:], leader)
	put32(meta[8:], stage)
	h.Write(meta[:])
	h.Write(vh)
	return h.Sum(nil)
}

func put32(b []byte, v int) {
	b[0], b[1], b[2], b[3] = byte(v>>24), byte(v>>16), byte(v>>8), byte(v)
}

// --- view lifecycle ---

func (v *VBA) enterView(view int) {
	if view > maxViews || v.halted {
		return
	}
	v.view = view
	vs := v.state(view)
	vs.myValue = v.input
	if v.key != nil {
		vs.myValue = v.key.value
	}
	v.sendPB(vs, 1)
	// Replay buffered traffic for this view.
	for _, p := range v.pendPB[view] {
		v.Handle(p.from, p.body)
	}
	delete(v.pendPB, view)
	for _, p := range v.pendVC[view] {
		v.Handle(p.from, p.body)
	}
	delete(v.pendVC, view)
}

// sendPB multicasts this party's stage-s PBSend for its own broadcast.
func (v *VBA) sendPB(vs *viewState, stage int) {
	if vs.sent[stage] {
		return
	}
	vs.sent[stage] = true
	var w wire.Writer
	w.Byte(msgPBSend)
	w.Int(vs.view)
	w.Byte(byte(stage))
	w.Blob(vs.myValue)
	if stage == 1 {
		if v.key == nil {
			w.Bool(false)
		} else {
			w.Bool(true)
			w.Int(v.key.view)
			w.Int(v.key.leader)
			w.Byte(byte(v.key.stage))
			v.key.cert.Encode(&w)
		}
	} else {
		vs.myCerts[stage-1].Encode(&w)
	}
	v.rt.Multicast(v.inst, w.Bytes())
}

// Handle implements proto.Handler.
func (v *VBA) Handle(from int, body []byte) {
	if v.halted {
		return
	}
	rd := wire.NewReader(body)
	switch rd.Byte() {
	case msgPBSend:
		v.onPBSend(from, body, rd)
	case msgPBAck:
		v.onPBAck(from, rd)
	case msgDone:
		v.onDone(from, body, rd)
	case msgReady:
		v.onReady(from, rd)
	case msgViewChange:
		v.onViewChange(from, body, rd)
	case msgDecide:
		v.onDecide(from, rd)
	default:
		v.rt.Reject()
	}
}

// onPBSend validates a stage send from leader `from` and acks it.
func (v *VBA) onPBSend(from int, raw []byte, rd *wire.Reader) {
	view := rd.Int()
	stage := int(rd.Byte())
	value := rd.Blob()
	if rd.Err() != nil || view < 1 || view > maxViews || stage < 1 || stage > 4 {
		v.rt.Reject()
		return
	}
	if !v.started || view > v.view {
		v.pendPB[view] = append(v.pendPB[view], pend{from, raw})
		return
	}
	vs := v.state(view)
	if vs.ackStopped || view < v.view {
		return // stale view or frozen by the Ready barrier
	}
	// One value per (view, leader), forever. A different value under the
	// same (view, leader) is proof of an equivocating proposer.
	if pv, ok := vs.pinned[from]; ok {
		if string(pv) != string(value) {
			v.rt.Equivocation()
			v.rt.Reject()
			return
		}
	}
	if stage <= vs.ackedStage[from] {
		return
	}
	vh := valueHash(value)
	if stage == 1 {
		hasKey := rd.Bool()
		if hasKey {
			kView := rd.Int()
			kLeader := rd.Int()
			kStage := int(rd.Byte())
			cert, ok := sig.DecodeQuorum(rd, v.rt.N())
			if !ok || rd.Done() != nil {
				v.rt.Reject()
				return
			}
			if !v.validKey(kView, kLeader, kStage, vh, &cert, view) {
				v.rt.Reject()
				return
			}
			if !v.lockRuleOK(kView, value) || !v.pred(value) {
				v.rt.Reject()
				return
			}
		} else {
			if rd.Done() != nil {
				v.rt.Reject()
				return
			}
			if (v.lock != nil && string(v.lock.value) != string(value)) || !v.pred(value) {
				v.rt.Reject()
				return
			}
		}
	} else {
		cert, ok := sig.DecodeQuorum(rd, v.rt.N())
		if !ok || rd.Done() != nil {
			v.rt.Reject()
			return
		}
		if !sig.VerifyQuorum(v.keys.Board.SigKeys(), v.ackMsg(view, from, stage-1, vh), &cert, v.rt.N()-v.rt.F()) {
			v.rt.Reject()
			return
		}
		v.noteProgress(vs, from, stage-1, value, cert)
	}
	vs.pinned[from] = append([]byte(nil), value...)
	vs.ackedStage[from] = stage
	s := v.keys.Sig.Sign(v.ackMsg(view, from, stage, vh))
	var w wire.Writer
	w.Byte(msgPBAck)
	w.Int(view)
	w.Byte(byte(stage))
	w.Raw(s.Bytes())
	v.rt.Send(v.inst, from, w.Bytes())
}

// validKey checks a stage-1 key justification: the referenced leader must be
// the elected leader of the referenced (strictly earlier) view and the
// certificate must bind that leader, view, stage and the proposed value.
func (v *VBA) validKey(kView, kLeader, kStage int, vh []byte, cert *sig.Quorum, curView int) bool {
	if kView < 1 || kView >= curView || kStage < 1 || kStage > 4 {
		return false
	}
	el, ok := v.elected[kView]
	if !ok || el != kLeader {
		return false
	}
	return sig.VerifyQuorum(v.keys.Board.SigKeys(), v.ackMsg(kView, kLeader, kStage, vh), cert, v.rt.N()-v.rt.F())
}

// lockRuleOK is the HotStuff-style unlocking rule: accept when we hold no
// lock, the key is at least as recent as our lock, or the value equals the
// locked value.
func (v *VBA) lockRuleOK(keyView int, value []byte) bool {
	if v.lock == nil {
		return true
	}
	return keyView >= v.lock.view || string(v.lock.value) == string(value)
}

// noteProgress records the best certificate observed for a leader's PB.
func (v *VBA) noteProgress(vs *viewState, leader, stage int, value []byte, cert sig.Quorum) {
	cur := vs.seen[leader]
	if cur == nil || cur.stage < stage {
		vs.seen[leader] = &progress{stage: stage, value: append([]byte(nil), value...), cert: cert}
	}
}

// onPBAck collects ack signatures for our own broadcast.
func (v *VBA) onPBAck(from int, rd *wire.Reader) {
	view := rd.Int()
	stage := int(rd.Byte())
	sb := rd.Raw(sig.Size)
	if rd.Done() != nil || view < 1 || view > maxViews || stage < 1 || stage > 4 {
		v.rt.Reject()
		return
	}
	if view != v.view {
		return // acks for a stale (or not-yet-entered) view never advance our PB
	}
	vs := v.state(view)
	if vs.myStage >= stage || vs.acks[stage][from] || vs.myValue == nil {
		return
	}
	s, err := sig.SignatureFromBytes(sb)
	if err != nil || !sig.Verify(v.keys.Board.Parties[from].Sig,
		v.ackMsg(view, v.rt.Self(), stage, valueHash(vs.myValue)), s) {
		v.rt.Reject()
		return
	}
	vs.acks[stage][from] = true
	vs.myCerts[stage].Add(from, s)
	if vs.myCerts[stage].Len() < v.rt.N()-v.rt.F() {
		return
	}
	vs.myStage = stage
	if stage < 4 {
		v.sendPB(vs, stage+1)
		return
	}
	if vs.doneSnt {
		return
	}
	vs.doneSnt = true
	var w wire.Writer
	w.Byte(msgDone)
	w.Int(view)
	w.Blob(vs.myValue)
	vs.myCerts[4].Encode(&w)
	v.rt.Multicast(v.inst, w.Bytes())
}

// onDone records a completed 4-stage broadcast (a leader nomination).
func (v *VBA) onDone(from int, raw []byte, rd *wire.Reader) {
	view := rd.Int()
	value := rd.Blob()
	cert, ok := sig.DecodeQuorum(rd, v.rt.N())
	if !ok || rd.Done() != nil || view < 1 || view > maxViews {
		v.rt.Reject()
		return
	}
	if !v.started || view > v.view {
		v.pendPB[view] = append(v.pendPB[view], pend{from, raw})
		return
	}
	vs := v.state(view)
	if vs.doneSet[from] {
		return
	}
	if !sig.VerifyQuorum(v.keys.Board.SigKeys(), v.ackMsg(view, from, 4, valueHash(value)), &cert, v.rt.N()-v.rt.F()) {
		v.rt.Reject()
		return
	}
	vs.doneSet[from] = true
	v.noteProgress(vs, from, 4, value, cert)
	if len(vs.doneSet) >= v.rt.N()-v.rt.F() {
		v.sendReady(vs)
	}
}

func (v *VBA) sendReady(vs *viewState) {
	if vs.readySent {
		return
	}
	vs.readySent = true
	vs.ackStopped = true // freeze the view (AMS19's abandon)
	var w wire.Writer
	w.Byte(msgReady)
	w.Int(vs.view)
	v.rt.Multicast(v.inst, w.Bytes())
}

func (v *VBA) onReady(from int, rd *wire.Reader) {
	view := rd.Int()
	if rd.Done() != nil || view < 1 || view > maxViews {
		v.rt.Reject()
		return
	}
	vs := v.state(view)
	if vs.readyRecv[from] {
		return
	}
	vs.readyRecv[from] = true
	if len(vs.readyRecv) >= v.rt.F()+1 {
		v.sendReady(vs)
	}
	if len(vs.readyRecv) >= v.rt.N()-v.rt.F() && !vs.electGo && v.started {
		vs.electGo = true
		vs.elect = election.New(v.rt, fmt.Sprintf("%s/e%d", v.inst, view), v.keys,
			election.Config{Coin: v.cfg.Coin},
			func(r election.Result) { v.onElected(view, r.Leader) })
		vs.elect.Start()
	}
}

// onElected is the view change: broadcast what we know about the leader.
func (v *VBA) onElected(view, leader int) {
	v.elected[view] = leader
	vs := v.state(view)
	vs.leader = &leader
	// ViewChange messages that arrived before our election finished can be
	// validated now.
	if buf := v.pendVC[view]; len(buf) > 0 {
		delete(v.pendVC, view)
		for _, p := range buf {
			v.Handle(p.from, p.body)
		}
	}
	if vs.vcSent {
		return
	}
	vs.vcSent = true
	var w wire.Writer
	w.Byte(msgViewChange)
	w.Int(view)
	p := vs.seen[leader]
	if p == nil {
		w.Byte(0)
	} else {
		w.Byte(byte(p.stage))
		w.Blob(p.value)
		p.cert.Encode(&w)
	}
	v.rt.Multicast(v.inst, w.Bytes())
	v.maybeProcessVC(vs)
}

func (v *VBA) onViewChange(from int, raw []byte, rd *wire.Reader) {
	view := rd.Int()
	if rd.Err() != nil || view < 1 || view > maxViews {
		v.rt.Reject()
		return
	}
	vs := v.state(view)
	if vs.leader == nil {
		// Cannot validate until our election completes.
		v.pendVC[view] = append(v.pendVC[view], pend{from, raw})
		return
	}
	if vs.vcHas[from] {
		return
	}
	stage := int(rd.Byte())
	var p *progress
	if stage > 0 {
		if stage > 4 {
			v.rt.Reject()
			return
		}
		value := rd.Blob()
		cert, ok := sig.DecodeQuorum(rd, v.rt.N())
		if !ok || rd.Done() != nil {
			v.rt.Reject()
			return
		}
		if !sig.VerifyQuorum(v.keys.Board.SigKeys(),
			v.ackMsg(view, *vs.leader, stage, valueHash(value)), &cert, v.rt.N()-v.rt.F()) {
			v.rt.Reject()
			return
		}
		p = &progress{stage: stage, value: value, cert: cert}
	} else if rd.Done() != nil {
		v.rt.Reject()
		return
	}
	vs.vcHas[from] = true
	if p != nil {
		vs.vcRecv[from] = p
	}
	v.maybeProcessVC(vs)
}

// maybeProcessVC closes the view once n−f ViewChange reports are in.
func (v *VBA) maybeProcessVC(vs *viewState) {
	if vs.processed || vs.leader == nil || !vs.vcSent || len(vs.vcHas) < v.rt.N()-v.rt.F() {
		return
	}
	vs.processed = true
	var best *progress
	for _, s := range order.SortedKeys(vs.vcRecv) {
		if p := vs.vcRecv[s]; best == nil || p.stage > best.stage {
			best = p
		}
	}
	if best != nil {
		switch {
		case best.stage >= 3:
			v.adoptKey(vs.view, *vs.leader, best)
			v.adoptLock(vs.view, best.value)
			v.decide(vs.view, *vs.leader, best)
			// Continue into the next view regardless: participation must
			// survive until the Decide quorum halts us.
		case best.stage == 2:
			v.adoptKey(vs.view, *vs.leader, best)
			v.adoptLock(vs.view, best.value)
		default:
			v.adoptKey(vs.view, *vs.leader, best)
		}
	}
	if vs.view == v.view {
		v.enterView(vs.view + 1)
	}
}

func (v *VBA) adoptKey(view, leader int, p *progress) {
	if v.key == nil || v.key.view < view {
		v.key = &keyInfo{view: view, leader: leader, stage: p.stage, value: p.value, cert: p.cert}
	}
}

func (v *VBA) adoptLock(view int, value []byte) {
	if v.lock == nil || v.lock.view < view {
		v.lock = &lockInfo{view: view, value: value}
	}
}

// decide fires on a stage ≥3 certificate for the elected leader.
func (v *VBA) decide(view, leader int, p *progress) {
	if v.decided != nil {
		return
	}
	v.decided = append([]byte(nil), p.value...)
	v.DecidedView = view
	v.sendDecide(view, leader, p)
}

func (v *VBA) sendDecide(view, leader int, p *progress) {
	if v.decideSent {
		return
	}
	v.decideSent = true
	var w wire.Writer
	w.Byte(msgDecide)
	w.Int(view)
	w.Int(leader)
	w.Byte(byte(p.stage))
	w.Blob(p.value)
	p.cert.Encode(&w)
	v.rt.Multicast(v.inst, w.Bytes())
}

// onDecide implements the f+1/2f+1 amplification gadget.
func (v *VBA) onDecide(from int, rd *wire.Reader) {
	view := rd.Int()
	leader := rd.Int()
	stage := int(rd.Byte())
	value := rd.Blob()
	cert, ok := sig.DecodeQuorum(rd, v.rt.N())
	if !ok || rd.Done() != nil || view < 1 || view > maxViews ||
		leader < 0 || leader >= v.rt.N() || stage < 3 || stage > 4 {
		v.rt.Reject()
		return
	}
	if !sig.VerifyQuorum(v.keys.Board.SigKeys(),
		v.ackMsg(view, leader, stage, valueHash(value)), &cert, v.rt.N()-v.rt.F()) {
		v.rt.Reject()
		return
	}
	adopt, halt := v.decides.Ready(from, string(valueHash(value)))
	if adopt {
		// At least one honest decider vouches: adopt and relay.
		if v.decided == nil {
			v.decided = append([]byte(nil), value...)
			v.DecidedView = view
		}
		v.sendDecide(view, leader, &progress{stage: stage, value: value, cert: cert})
	}
	if halt {
		v.halted = true
		v.out(append([]byte(nil), value...))
	}
}
