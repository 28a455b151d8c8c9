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
// setting"). A certificate is written once, as cert: the PB progress a
// party reports, the key and lock it keeps, and the proof a Decide carries
// are all certs, and valid is the one place any of them is checked.
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
	"encoding/binary"
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

// cert is a stage certificate: n−f acks signed on (view, leader, stage,
// value), where leader is the party whose PB the acks are for.
type cert struct {
	view, leader, stage int
	value               []byte
	q                   sig.Quorum
}

type viewState struct {
	view int

	// Own provable broadcast.
	myValue []byte
	myStage int           // highest stage with a collected certificate
	myCerts [5]sig.Quorum // acks per stage; stage s closes at n−f
	sent    [5]bool
	doneSnt bool

	// As receiver.
	pinned     map[int][]byte // leader -> pinned value
	ackedStage map[int]int    // leader -> highest acked stage
	seen       map[int]*cert  // leader -> best certificate seen for its PB
	doneSet    map[int]bool
	ackStopped bool

	readySent bool
	readyRecv map[int]bool

	elect     *election.Election
	electGo   bool
	leader    *int
	vcSent    bool
	vcRecv    map[int]*cert // sender -> reported certificate for the leader
	vcHas     map[int]bool
	processed bool
}

func newViewState(v int) *viewState {
	return &viewState{
		view:       v,
		pinned:     make(map[int][]byte),
		ackedStage: make(map[int]int),
		seen:       make(map[int]*cert),
		doneSet:    make(map[int]bool),
		readyRecv:  make(map[int]bool),
		vcRecv:     make(map[int]*cert),
		vcHas:      make(map[int]bool),
	}
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

	key  *cert // re-proposed from the next view on
	lock *cert // stage ≥ 2: only its value, or a newer key, is acked

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

// ackMsg is what an ack of leader's stage-s PB of value in view signs.
func (v *VBA) ackMsg(view, leader, stage int, value []byte) []byte {
	var meta [12]byte
	binary.BigEndian.PutUint32(meta[0:], uint32(view))
	binary.BigEndian.PutUint32(meta[4:], uint32(leader))
	binary.BigEndian.PutUint32(meta[8:], uint32(stage))
	return sig.Digest("vba/ack", v.inst, meta[:], valueHash(value))
}

// valid reports whether c's quorum holds n−f acks on its (view, leader,
// stage, value).
func (v *VBA) valid(c *cert) bool {
	return v.keys.VerifyQuorum(v.ackMsg(c.view, c.leader, c.stage, c.value), &c.q, v.rt.N()-v.rt.F())
}

// encodeTail writes c's (stage, value, quorum), or stage 0 for no cert.
func (c *cert) encodeTail(w *wire.Writer) {
	if c == nil {
		w.Byte(0)
		return
	}
	w.Byte(byte(c.stage))
	w.Blob(c.value)
	c.q.Encode(w)
}

// decodeTail reads an encodeTail tail, which must end the message, as a
// certificate for (view, leader). A stage-0 tail decodes to nil; ok is
// false on any malformation or a stage above 4.
func (v *VBA) decodeTail(rd *wire.Reader, view, leader int) (c *cert, ok bool) {
	c = &cert{view: view, leader: leader, stage: int(rd.Byte())}
	if c.stage == 0 {
		return nil, rd.Done() == nil
	}
	if c.stage > 4 {
		return nil, false
	}
	c.value = rd.Blob()
	c.q, ok = sig.DecodeQuorum(rd, v.rt.N())
	return c, ok && rd.Done() == nil
}

// PBSend is a provable-broadcast send: the sender's stage-Stage broadcast
// of Value in View. A stage-1 send carries Key, the certificate that lets
// the sender re-propose Value (nil for its own input); a later stage
// carries Acks, the n−f acks that closed the stage before. Bytes and
// DecodePBSend are the wire format; sendPB and onPBSend go through them.
type PBSend struct {
	View, Stage int
	Value       []byte
	Key         *cert
	Acks        sig.Quorum
}

// Bytes encodes m as its tag, view, stage and value, then the acks, or for
// stage 1 a key flag and the key's view, leader, stage and quorum.
func (m *PBSend) Bytes() []byte {
	var w wire.Writer
	w.Byte(msgPBSend)
	w.Int(m.View)
	w.Byte(byte(m.Stage))
	w.Blob(m.Value)
	switch {
	case m.Stage > 1:
		m.Acks.Encode(&w)
	case m.Key == nil:
		w.Bool(false)
	default:
		w.Bool(true)
		w.Int(m.Key.view)
		w.Int(m.Key.leader)
		w.Byte(byte(m.Key.stage))
		m.Key.q.Encode(&w)
	}
	return w.Bytes()
}

// DecodePBSend decodes a whole Bytes body for n parties; ok is false for
// another tag or any malformation. The range, lock and predicate checks
// are onPBSend's, which reads the head and checks it before the tail.
func DecodePBSend(body []byte, n int) (m PBSend, ok bool) {
	rd := wire.NewReader(body)
	if rd.Byte() != msgPBSend {
		return m, false
	}
	m = readPBHead(rd)
	return m, m.readTail(rd, n)
}

func readPBHead(rd *wire.Reader) PBSend {
	return PBSend{View: rd.Int(), Stage: int(rd.Byte()), Value: rd.Blob()}
}

// readTail reads the acks or the key, which must end the body.
func (m *PBSend) readTail(rd *wire.Reader, n int) bool {
	ok := true
	if m.Stage > 1 {
		m.Acks, ok = sig.DecodeQuorum(rd, n)
	} else if rd.Bool() {
		m.Key = &cert{view: rd.Int(), leader: rd.Int(), stage: int(rd.Byte()), value: m.Value}
		m.Key.q, ok = sig.DecodeQuorum(rd, n)
	}
	return ok && rd.Done() == nil
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
	m := PBSend{View: vs.view, Stage: stage, Value: vs.myValue}
	if stage == 1 {
		m.Key = v.key
	} else {
		m.Acks = vs.myCerts[stage-1]
	}
	v.rt.Multicast(v.inst, m.Bytes())
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
	m := readPBHead(rd)
	view, stage, value := m.View, m.Stage, m.Value
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
	if !m.readTail(rd, v.rt.N()) {
		v.rt.Reject()
		return
	}
	if stage == 1 {
		if key := m.Key; key != nil {
			if !v.validKey(key, view) || !v.lockRuleOK(key.view, value) || !v.pred(value) {
				v.rt.Reject()
				return
			}
		} else if (v.lock != nil && string(v.lock.value) != string(value)) || !v.pred(value) {
			v.rt.Reject()
			return
		}
	} else {
		c := &cert{view: view, leader: from, stage: stage - 1, value: value, q: m.Acks}
		if !v.valid(c) {
			v.rt.Reject()
			return
		}
		v.noteProgress(vs, c)
	}
	vs.pinned[from] = append([]byte(nil), value...)
	vs.ackedStage[from] = stage
	s := v.keys.Sign(v.ackMsg(view, from, stage, value))
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
func (v *VBA) validKey(key *cert, curView int) bool {
	if key.view < 1 || key.view >= curView || key.stage < 1 || key.stage > 4 {
		return false
	}
	el, ok := v.elected[key.view]
	return ok && el == key.leader && v.valid(key)
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
func (v *VBA) noteProgress(vs *viewState, c *cert) {
	if cur := vs.seen[c.leader]; cur == nil || cur.stage < c.stage {
		c.value = append([]byte(nil), c.value...)
		vs.seen[c.leader] = c
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
	q := &vs.myCerts[stage]
	if vs.myStage >= stage || q.Has(from) || vs.myValue == nil {
		return
	}
	if !v.keys.Collect(q, from, v.ackMsg(view, v.rt.Self(), stage, vs.myValue), sb) {
		v.rt.Reject()
		return
	}
	if q.Len() < v.rt.N()-v.rt.F() {
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
	c := &cert{view: view, leader: from, stage: 4, value: rd.Blob()}
	q, ok := sig.DecodeQuorum(rd, v.rt.N())
	c.q = q
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
	if !v.valid(c) {
		v.rt.Reject()
		return
	}
	vs.doneSet[from] = true
	v.noteProgress(vs, c)
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
	vs.seen[leader].encodeTail(&w)
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
	c, ok := v.decodeTail(rd, view, *vs.leader)
	if !ok || (c != nil && !v.valid(c)) {
		v.rt.Reject()
		return
	}
	vs.vcHas[from] = true
	if c != nil {
		vs.vcRecv[from] = c
	}
	v.maybeProcessVC(vs)
}

// maybeProcessVC closes the view once n−f ViewChange reports are in.
func (v *VBA) maybeProcessVC(vs *viewState) {
	if vs.processed || vs.leader == nil || !vs.vcSent || len(vs.vcHas) < v.rt.N()-v.rt.F() {
		return
	}
	vs.processed = true
	var best *cert
	for _, s := range order.SortedKeys(vs.vcRecv) {
		if c := vs.vcRecv[s]; best == nil || c.stage > best.stage {
			best = c
		}
	}
	// Stage ≥ 1 adopts the key, ≥ 2 also the lock, ≥ 3 also decides; the
	// party continues into the next view regardless, since participation
	// must survive until the Decide quorum halts it.
	if best != nil {
		if v.key == nil || v.key.view < best.view {
			v.key = best
		}
		if best.stage >= 2 && (v.lock == nil || v.lock.view < best.view) {
			v.lock = best
		}
		if best.stage >= 3 && v.decided == nil {
			v.decided = append([]byte(nil), best.value...)
			v.DecidedView = best.view
			v.sendDecide(best)
		}
	}
	if vs.view == v.view {
		v.enterView(vs.view + 1)
	}
}

func (v *VBA) sendDecide(c *cert) {
	if v.decideSent {
		return
	}
	v.decideSent = true
	var w wire.Writer
	w.Byte(msgDecide)
	w.Int(c.view)
	w.Int(c.leader)
	c.encodeTail(&w)
	v.rt.Multicast(v.inst, w.Bytes())
}

// onDecide implements the f+1/2f+1 amplification gadget.
func (v *VBA) onDecide(from int, rd *wire.Reader) {
	view := rd.Int()
	leader := rd.Int()
	c, ok := v.decodeTail(rd, view, leader)
	if !ok || c == nil || view < 1 || view > maxViews ||
		leader < 0 || leader >= v.rt.N() || c.stage < 3 || !v.valid(c) {
		v.rt.Reject()
		return
	}
	adopt, halt := v.decides.Ready(from, string(valueHash(c.value)))
	if adopt {
		// At least one honest decider vouches: adopt and relay.
		if v.decided == nil {
			v.decided = append([]byte(nil), c.value...)
			v.DecidedView = view
		}
		v.sendDecide(c)
	}
	if halt {
		v.halted = true
		v.out(append([]byte(nil), c.value...))
	}
}
