// Package abc implements asynchronous atomic broadcast — the BFT
// state-machine-replication application class the paper's introduction
// motivates (§1.3, citing HoneyBadger/Dumbo) — on the private-setup-free
// stack: bulletin PKI only.
//
// The Engine is a BKR/HoneyBadger-style asynchronous common subset per
// slot. Each party AVID-broadcasts its pending batch (n parallel
// erasure-coded RBCs on the cached-basis RS codec) and n concurrent ABAs
// decide which broadcasts enter the slot's committed set — a party inputs 1
// to ABA_j when RBC_j delivers a valid batch, and after n−f ABAs decide 1
// it inputs 0 to every ABA it has not yet voted in. When all n ABAs have
// decided and every 1-decided broadcast has delivered locally, the slot
// assembles deterministically in origin order, so all honest logs are
// identical; at least n−f batches commit per slot (the first honest 0-vote
// anywhere presupposes n−f one-decisions). Slots pipeline: slot s+1's
// broadcasts launch while slot s's ABAs still run, up to MaxInFlight slots
// past the delivered frontier.
//
// The engine is work-conserving on the deterministic simulator: with no
// queued transactions it launches nothing (the network quiesces instead of
// spinning empty slots). A party that launches slot s multicasts a WAKE on
// the engine's own instance path so idle parties join the slot — that path
// is registered from construction, hence always deliverable. Shutdown is an
// agreement in-band: a stopping party whose mempool has drained marks its
// batches with the stop flag, and the first slot whose committed entries
// are all marked is the final slot at every party.
package abc

import (
	"fmt"

	"repro/internal/core/aba"
	"repro/internal/core/coin"
	"repro/internal/core/rbc"
	"repro/internal/pki"
	"repro/internal/proto"
	"repro/internal/wire"
)

// DeliverSlot receives each committed slot exactly once, in slot order,
// with entries sorted by origin — byte-identical at every honest party.
type DeliverSlot func(slot int, entries []Entry)

// EngineConfig tunes the common-subset engine.
type EngineConfig struct {
	// Coin configures the paper coins of the slot's ABAs. Every ABA round
	// starts and awaits its coin, unanimous ABAs — the common case —
	// included, though only a round whose view₂ is {⊥} reads the bit;
	// skipping those coins is ROADMAP item 1.
	Coin coin.Config
	// Coins overrides the per-ABA coin factory (tests, ablations); inst is
	// the ABA's instance path. Nil selects paper coins under inst+"/c".
	Coins func(inst string) aba.CoinFactory
	// BatchBytes bounds the transaction bytes drawn from the mempool per
	// batch (<= 0 selects DefaultBatchBytes).
	BatchBytes int
	// MaxInFlight bounds how many slots may be launched past the delivered
	// frontier (<= 0 selects DefaultMaxInFlight).
	MaxInFlight int
	// MaxSlots, when positive, runs a fixed horizon of exactly MaxSlots
	// slots launched unconditionally (benchmarks); 0 streams until
	// RequestStop and gates launching on queued work.
	MaxSlots int
	// OnLaunch, when non-nil, observes each locally launched slot from the
	// dispatch context (instrumentation: commit-latency measurement).
	OnLaunch func(slot int)
}

// engWake is the engine's only control-plane message: "I launched slot s,
// launch yours so the slot's n² instances all have participants".
const engWake byte = 1

type slotState struct {
	index     int
	rbcs      []*rbc.AVID
	abas      []*aba.ABA
	batches   [][]byte // delivered AVID payloads by origin (nil = pending)
	input     []bool   // ABAs this party has voted in
	decided   []int8   // -1 pending, else the decided bit
	ones      int
	decisions int
	myTxs     [][]byte // own batch content, for requeue on exclusion
	committed bool
}

// Engine is one party's endpoint of the parallel-broadcast common-subset
// ledger. All methods other than the Mempool's must run in the party's
// dispatch context (construct and drive via proto.Driver.Launch).
type Engine struct {
	rt      proto.Runtime
	inst    string
	keys    *pki.Keyring
	cfg     EngineConfig
	pool    *Mempool
	deliver DeliverSlot
	done    func(finalSlot int)

	started  bool
	slots    map[int]*slotState
	ready    map[int]*slotState // committed, awaiting in-order delivery
	launched int                // next slot index to launch
	next     int                // first undelivered slot
	force    int                // launch through force-1 even without work (WAKE)
	stopping bool
	finished bool
	final    int
}

// NewEngine registers one party's engine under inst. pool supplies batches;
// deliver (optional) observes committed slots in order; done (optional)
// fires once when the final slot has been delivered (streaming mode: the
// first all-stop slot; fixed horizon: slot MaxSlots-1).
func NewEngine(rt proto.Runtime, inst string, keys *pki.Keyring, cfg EngineConfig, pool *Mempool, deliver DeliverSlot, done func(finalSlot int)) *Engine {
	if cfg.BatchBytes <= 0 {
		cfg.BatchBytes = DefaultBatchBytes
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = DefaultMaxInFlight
	}
	if pool == nil {
		pool = NewMempool(0)
	}
	e := &Engine{
		rt:      rt,
		inst:    inst,
		keys:    keys,
		cfg:     cfg,
		pool:    pool,
		deliver: deliver,
		done:    done,
		slots:   make(map[int]*slotState),
		ready:   make(map[int]*slotState),
		final:   -1,
	}
	rt.Register(inst, proto.HandlerFunc(e.handle))
	return e
}

// Start begins sequencing. In streaming mode with an empty mempool nothing
// launches until NotifyWork, a peer's WAKE, or RequestStop.
func (e *Engine) Start() {
	if e.started {
		return
	}
	e.started = true
	e.tryLaunch()
}

// NotifyWork re-evaluates launching after transactions entered the pool.
func (e *Engine) NotifyWork() { e.tryLaunch() }

// RequestStop begins drain: once the mempool empties, this party's batches
// carry the stop flag, and the first slot committing only flagged batches
// finalizes the log. Every honest party must eventually be asked to stop,
// or the flagged slots keep admitting unflagged batches. Drain conserves
// transactions: every batch taken from the mempool either commits in a
// delivered slot or is requeued at finish — both a batch the adversary
// excludes from the final slot and batches in pipelined slots the final
// slot outruns. Requeued transactions have no later slot to carry them;
// callers needing them must inspect the pool after finish (the Ledger
// layer reports leftovers).
func (e *Engine) RequestStop() {
	if e.stopping {
		return
	}
	e.stopping = true
	e.tryLaunch()
}

// DeliveredThrough reports how many leading slots have been delivered.
func (e *Engine) DeliveredThrough() int { return e.next }

// Finished reports whether the final slot has been delivered.
func (e *Engine) Finished() bool { return e.finished }

// FinalSlot returns the agreed final slot index, or -1 before finish.
func (e *Engine) FinalSlot() int { return e.final }

func (e *Engine) streaming() bool { return e.cfg.MaxSlots <= 0 }

// hasWork reports whether a new slot would carry anything: queued
// transactions, or the stop flag still looking for its all-stop slot.
func (e *Engine) hasWork() bool {
	return !e.pool.Empty() || e.stopping
}

func (e *Engine) tryLaunch() {
	if !e.started {
		return
	}
	for !e.finished && e.launched-e.next < e.cfg.MaxInFlight {
		if e.streaming() {
			if !e.hasWork() && e.launched >= e.force {
				return
			}
		} else if e.launched >= e.cfg.MaxSlots {
			return
		}
		s := e.launched
		e.launched++
		e.launchSlot(s)
	}
}

func (e *Engine) launchSlot(s int) {
	n := e.rt.N()
	st := &slotState{
		index:   s,
		rbcs:    make([]*rbc.AVID, n),
		abas:    make([]*aba.ABA, n),
		batches: make([][]byte, n),
		input:   make([]bool, n),
		decided: make([]int8, n),
	}
	for j := range st.decided {
		st.decided[j] = -1
	}
	e.slots[s] = st
	for j := 0; j < n; j++ {
		st.rbcs[j] = rbc.NewAVID(e.rt, fmt.Sprintf("%s/s%d/b%d", e.inst, s, j), j,
			func(v []byte) { e.onDeliver(st, j, v) })
	}
	for j := 0; j < n; j++ {
		aInst := fmt.Sprintf("%s/s%d/a%d", e.inst, s, j)
		st.abas[j] = aba.New(e.rt, aInst, e.coinFactory(aInst),
			func(bit byte) { e.onDecide(st, j, bit) })
	}
	if e.cfg.OnLaunch != nil {
		e.cfg.OnLaunch(s)
	}
	txs := e.pool.Take(e.cfg.BatchBytes)
	st.myTxs = txs
	stop := e.streaming() && e.stopping && e.pool.Empty()
	st.rbcs[e.rt.Self()].Start(EncodeBatch(txs, stop))
	if e.streaming() {
		var w wire.Writer
		w.Byte(engWake)
		w.Int(s)
		e.rt.Multicast(e.inst, w.Bytes())
	}
}

func (e *Engine) coinFactory(inst string) aba.CoinFactory {
	if e.cfg.Coins != nil {
		return e.cfg.Coins(inst)
	}
	return aba.PaperCoins(e.rt, inst+"/c", e.keys, e.cfg.Coin)
}

// handle consumes the engine's own control path (WAKEs).
func (e *Engine) handle(_ int, body []byte) {
	r := wire.NewReader(body)
	if r.Byte() != engWake {
		e.rt.Reject()
		return
	}
	s := r.Int()
	if r.Done() != nil || s < 0 || s > 1<<30 {
		e.rt.Reject()
		return
	}
	// Clamp the honored index to one pipeline window past the local launch
	// frontier. With f faulty parties a slot delivers only with every live
	// party's participation, so an honest peer's launch frontier stays
	// within MaxInFlight of every party's launched count and the clamp
	// never truncates its WAKEs (with fewer faults, the peer's subsequent
	// per-launch WAKEs re-pull incrementally). A Byzantine WAKE naming a
	// far-future slot therefore drags this party at most MaxInFlight empty
	// slots forward per message, instead of 2^30 off a single forgery.
	if limit := e.launched + e.cfg.MaxInFlight; s >= limit {
		s = limit - 1
	}
	if s+1 > e.force {
		e.force = s + 1
	}
	e.tryLaunch()
}

func (e *Engine) onDeliver(st *slotState, j int, v []byte) {
	if st.batches[j] != nil {
		return
	}
	st.batches[j] = v
	if !st.input[j] && wellFormed(v) {
		st.input[j] = true
		st.abas[j].Start(1)
	}
	e.tryCommit(st)
}

func wellFormed(batch []byte) bool {
	_, _, err := DecodeBatch(batch)
	return err == nil
}

func (e *Engine) onDecide(st *slotState, j int, bit byte) {
	if st.decided[j] >= 0 {
		return
	}
	st.decided[j] = int8(bit)
	st.decisions++
	if bit == 1 {
		st.ones++
		if st.ones >= e.rt.N()-e.rt.F() {
			// The BKR input rule: with n−f broadcasts already in, stop
			// waiting for the rest and vote them out.
			for k, in := range st.input {
				if !in {
					st.input[k] = true
					st.abas[k].Start(0)
				}
			}
		}
	}
	e.tryCommit(st)
}

func (e *Engine) tryCommit(st *slotState) {
	if st.committed || st.decisions < e.rt.N() {
		return
	}
	for j, d := range st.decided {
		if d == 1 && st.batches[j] == nil {
			return // voted in, not yet delivered locally
		}
	}
	st.committed = true
	e.ready[st.index] = st
	e.drainReady()
}

// drainReady delivers committed slots in order, requeues this party's
// transactions when a slot excluded its batch, and finalizes on the first
// all-stop slot (streaming) or the horizon (fixed). It then resumes
// launching — the pipelining edge.
func (e *Engine) drainReady() {
	for !e.finished {
		st, ok := e.ready[e.next]
		if !ok {
			break
		}
		delete(e.ready, e.next)
		delete(e.slots, e.next)
		e.next++
		entries, allStop := e.assemble(st)
		if st.decided[e.rt.Self()] != 1 && len(st.myTxs) > 0 {
			e.pool.Requeue(st.myTxs)
		}
		if e.deliver != nil {
			e.deliver(st.index, entries)
		}
		if e.streaming() && allStop || !e.streaming() && e.next == e.cfg.MaxSlots {
			e.finished = true
			e.final = st.index
			e.reclaimPipelined()
			if e.done != nil {
				e.done(st.index)
			}
			return
		}
	}
	e.tryLaunch()
}

// reclaimPipelined requeues this party's batches from slots launched past
// the final slot — the pipelining edge of finish. Those slots' outcomes are
// discarded identically at every party (nothing delivers past the final
// slot), so the transactions their myTxs hold would otherwise be lost: they
// left the mempool, will never commit, and Ledger.Stop's leftover sweep
// only inspects pools. Every undelivered slot sits in e.slots (e.ready is a
// subset), and at finish all of them have index > final; the sweep walks
// them in descending slot order so Requeue's prepends restore take order.
func (e *Engine) reclaimPipelined() {
	for s := e.launched - 1; s >= e.next; s-- {
		st, ok := e.slots[s]
		if !ok || len(st.myTxs) == 0 {
			continue
		}
		e.pool.Requeue(st.myTxs)
		st.myTxs = nil
	}
}

// assemble decodes the slot's committed set in origin order. Malformed
// batches (impossible for honest senders) are excluded — deterministically,
// since every party decodes the same agreed bytes. allStop reports the
// shutdown predicate: at least one entry, every entry stop-flagged.
func (e *Engine) assemble(st *slotState) (entries []Entry, allStop bool) {
	anyStop := false
	allStop = true
	for j, d := range st.decided {
		if d != 1 {
			continue
		}
		txs, stop, err := DecodeBatch(st.batches[j])
		if err != nil {
			continue
		}
		entries = append(entries, Entry{Origin: j, Txs: txs})
		if stop {
			anyStop = true
		} else {
			allStop = false
		}
	}
	return entries, allStop && anyStop
}
