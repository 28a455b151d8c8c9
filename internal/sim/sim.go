// Package sim is a deterministic in-process asynchronous network simulator.
//
// Protocols are reactive state machines (Handler); the network holds every
// in-flight message and a Scheduler decides which one is delivered next —
// this is exactly the paper's adversary, which "must be consulted to approve
// the delivery of messages … can arbitrarily delay and reorder" (§3). All
// randomness flows from the run seed, so executions replay bit-for-bit.
//
// The simulator measures the paper's three complexity metrics:
//
//   - message complexity: count of messages sent by honest parties;
//   - communication complexity: wire-encoded bytes of those messages;
//   - asynchronous rounds: causal depth, per §3's virtual-round definition —
//     a message sent while processing a depth-d delivery has depth d+1.
//
// Each node routes through a proto.Table, as the live runtime does: messages
// addressed to instances that are not yet registered are parked and replayed
// on registration (in an asynchronous network, arrival before local
// activation is the norm, not an error), and messages for retired instances
// are dropped.
package sim

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/proto"
)

// Handler is the per-instance message consumer (alias of proto.Handler).
type Handler = proto.Handler

// HandlerFunc adapts a function to Handler (alias of proto.HandlerFunc).
type HandlerFunc = proto.HandlerFunc

// Node implements the protocol-facing runtime surface.
var _ proto.Runtime = (*Node)(nil)

// Envelope is an in-flight message, visible to Scheduler policies.
type Envelope struct {
	From, To int
	Inst     string
	Body     []byte
	Depth    int
	Seq      int64
}

// Scheduler picks which in-flight message is delivered next.
type Scheduler interface {
	Pick(r *rand.Rand, q []*Envelope) int
}

// SchedulerFunc adapts a function to Scheduler.
type SchedulerFunc func(r *rand.Rand, q []*Envelope) int

// Pick implements Scheduler.
func (f SchedulerFunc) Pick(r *rand.Rand, q []*Envelope) int { return f(r, q) }

// RandomScheduler delivers a uniformly random in-flight message — the
// baseline asynchronous adversary.
func RandomScheduler() Scheduler {
	return SchedulerFunc(func(r *rand.Rand, q []*Envelope) int { return r.Intn(len(q)) })
}

// FIFOScheduler delivers messages in send order (a best-case network). It
// selects by sequence number, not queue position: the queue swap-removes on
// delivery, so slot 0 is not necessarily the oldest message.
func FIFOScheduler() Scheduler {
	return SchedulerFunc(func(_ *rand.Rand, q []*Envelope) int {
		best := 0
		for i, e := range q {
			if e.Seq < q[best].Seq {
				best = i
			}
		}
		return best
	})
}

// DelayScheduler adversarially starves traffic touching the Slow set: with
// probability Bias it delivers a message not involving a slow party when one
// exists. Models targeted message delay within eventual delivery.
type DelayScheduler struct {
	Slow map[int]bool
	Bias float64
}

// Pick implements Scheduler.
func (d DelayScheduler) Pick(r *rand.Rand, q []*Envelope) int {
	if r.Float64() < d.Bias {
		fast := make([]int, 0, len(q))
		for i, e := range q {
			if !d.Slow[e.From] && !d.Slow[e.To] {
				fast = append(fast, i)
			}
		}
		if len(fast) > 0 {
			return fast[r.Intn(len(fast))]
		}
	}
	return r.Intn(len(q))
}

// Metrics is the per-run accounting snapshot.
type Metrics struct {
	Honest   proto.Meter // messages sent by honest parties (the paper's metrics)
	Byz      proto.Meter // messages sent by corrupted parties (not part of the paper's cost)
	Rejected int64       // malformed/mis-attributed messages dropped by handlers
	// Equivocations counts conflicting-message evidence recorded by
	// handlers — proof of a Byzantine sender, as opposed to Rejected's
	// unattributable garbage.
	Equivocations int64
	MaxDepth      int // largest causal depth processed
}

// Config describes a simulated network.
type Config struct {
	N, F      int
	Seed      int64
	Scheduler Scheduler // nil means RandomScheduler
	Byzantine map[int]bool
}

// Network is the simulated asynchronous network.
type Network struct {
	n, f    int
	rng     *rand.Rand
	sched   Scheduler
	queue   []*Envelope
	nodes   []*Node
	byz     map[int]bool
	metrics Metrics
	seq     int64
	steps   int64
}

// New builds a network with n fresh nodes.
func New(cfg Config) *Network {
	if cfg.N <= 0 {
		panic("sim: N must be positive")
	}
	sched := cfg.Scheduler
	if sched == nil {
		sched = RandomScheduler()
	}
	nw := &Network{
		n:     cfg.N,
		f:     cfg.F,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		sched: sched,
		byz:   cfg.Byzantine,
	}
	for i := 0; i < cfg.N; i++ {
		nw.nodes = append(nw.nodes, &Node{
			nw:  nw,
			idx: i,
			rng: rand.New(rand.NewSource(cfg.Seed*1_000_003 + int64(i))),
		})
	}
	return nw
}

// Node returns the i-th node's runtime view.
func (nw *Network) Node(i int) *Node { return nw.nodes[i] }

// Metrics returns the live accounting snapshot.
func (nw *Network) Metrics() *Metrics { return &nw.metrics }

// Pending reports the number of in-flight messages.
func (nw *Network) Pending() int { return len(nw.queue) }

// Steps reports how many deliveries have been executed.
func (nw *Network) Steps() int64 { return nw.steps }

// Inject enqueues an arbitrary message on behalf of (possibly corrupted)
// party `from`. Tests use it to model fabricated traffic.
func (nw *Network) Inject(from, to int, inst string, body []byte) {
	nw.enqueue(from, to, inst, body, 1)
}

func (nw *Network) enqueue(from, to int, inst string, body []byte, depth int) {
	if to < 0 || to >= nw.n {
		return
	}
	nw.seq++
	env := &Envelope{From: from, To: to, Inst: inst, Body: body, Depth: depth, Seq: nw.seq}
	nw.queue = append(nw.queue, env)
	m := &nw.metrics.Honest
	if nw.byz[from] {
		m = &nw.metrics.Byz
	}
	m.Record(inst, len(body))
}

// Step delivers one message (plus any replayed buffered messages it
// unlocks). It returns false when nothing is in flight.
func (nw *Network) Step() bool {
	progressed := nw.drainReplays()
	if len(nw.queue) == 0 {
		return progressed
	}
	i := nw.sched.Pick(nw.rng, nw.queue)
	if i < 0 || i >= len(nw.queue) {
		i = 0
	}
	env := nw.queue[i]
	nw.queue[i] = nw.queue[len(nw.queue)-1]
	nw.queue = nw.queue[:len(nw.queue)-1]
	nw.steps++
	nw.deliver(env)
	nw.drainReplays()
	return true
}

// drainReplays processes buffered messages unlocked by registrations.
func (nw *Network) drainReplays() bool {
	any := false
	for progress := true; progress; {
		progress = false
		for _, nd := range nw.nodes {
			for len(nd.replay) > 0 {
				env := nd.replay[0]
				nd.replay = nd.replay[1:]
				nw.deliver(env)
				progress, any = true, true
			}
		}
	}
	return any
}

// deliver runs env's handler at depth env.Depth, or leaves env to the
// receiver's table to park or drop.
func (nw *Network) deliver(env *Envelope) {
	nd := nw.nodes[env.To]
	if nd.crashed {
		return
	}
	h, _ := nd.routes.Route(env.Inst, env)
	if h == nil {
		return
	}
	prev := nd.depth
	nd.depth = env.Depth
	if env.Depth > nw.metrics.MaxDepth {
		nw.metrics.MaxDepth = env.Depth
	}
	h.Handle(env.From, env.Body)
	nd.depth = prev
}

// DefaultDeliveryBudget is the generous per-run delivery cap used when a
// caller does not set an explicit budget: far above what any healthy run
// needs, so hitting it means runaway traffic, while a genuine liveness
// failure is normally reported earlier as a drained-queue StallError.
const DefaultDeliveryBudget int64 = 2_000_000_000

// StallError reports a run that stopped before its completion predicate
// held — either the queue drained (a liveness failure: every sent message
// was delivered yet the protocol did not finish) or the delivery budget ran
// out. Pending lists instance paths holding buffered messages whose handler
// was never registered; under adversarial schedules that is usually the
// smoking gun, naming the sub-protocol some party never activated. Missing
// is filled by session layers that know which parties they were awaiting.
type StallError struct {
	Drained  bool     // queue drained with done() still false
	Budget   int64    // the exhausted delivery budget (0 when Drained)
	Steps    int64    // total deliveries the network had executed when the run stopped
	InFlight int      // messages still queued (0 when Drained)
	Pending  []string // instance paths with buffered, never-delivered messages
	Missing  []int    // parties that had not produced output (set by callers)
}

// Error renders the stall with its diagnosis.
func (e *StallError) Error() string {
	msg := fmt.Sprintf("sim: queue drained after %d steps but run not done", e.Steps)
	if !e.Drained {
		msg = fmt.Sprintf("sim: exceeded %d steps (%d messages still in flight)", e.Budget, e.InFlight)
	}
	if len(e.Missing) > 0 {
		msg += fmt.Sprintf("; no output from parties %v", e.Missing)
	}
	if len(e.Pending) > 0 {
		shown := e.Pending
		const maxShown = 8
		suffix := ""
		if len(shown) > maxShown {
			suffix = fmt.Sprintf(" …+%d more", len(shown)-maxShown)
			shown = shown[:maxShown]
		}
		msg += fmt.Sprintf("; messages buffered for unregistered paths %v%s", shown, suffix)
	}
	return msg
}

// stall builds the StallError for the current network state.
func (nw *Network) stall(drained bool, budget int64) *StallError {
	e := &StallError{Drained: drained, Steps: nw.steps}
	if !drained {
		e.Budget, e.InFlight = budget, len(nw.queue)
	}
	seen := map[string]bool{}
	for _, nd := range nw.nodes {
		for _, inst := range nd.routes.Parked() {
			if !seen[inst] {
				seen[inst] = true
				e.Pending = append(e.Pending, inst)
			}
		}
	}
	sort.Strings(e.Pending)
	return e
}

// Run steps the network until done() reports true, the queue drains, or
// maxSteps deliveries have happened (maxSteps <= 0 selects
// DefaultDeliveryBudget). It returns a *StallError on budget exhaustion or
// on queue drain while done() is still false (a liveness-failure signal for
// tests). A nil done means "run until quiescent", exactly like RunAll;
// done() is consulted at most once per delivery.
func (nw *Network) Run(maxSteps int64, done func() bool) error {
	return nw.drive(context.Background(), maxSteps, done)
}

// RunAll delivers every message until the network is quiescent.
func (nw *Network) RunAll(maxSteps int64) error {
	return nw.drive(context.Background(), maxSteps, nil)
}

// drive is the one delivery loop under Run, RunAll and Driver.Await: it
// steps the network until done() holds (a nil done: until the queue
// drains), ctx is cancelled, or maxSteps deliveries have happened.
func (nw *Network) drive(ctx context.Context, maxSteps int64, done func() bool) error {
	if maxSteps <= 0 {
		maxSteps = DefaultDeliveryBudget
	}
	for s := int64(0); ; s++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		nw.drainReplays()
		if done != nil && done() {
			return nil
		}
		if len(nw.queue) == 0 {
			if done == nil {
				return nil
			}
			return nw.stall(true, maxSteps)
		}
		if s >= maxSteps {
			return nw.stall(false, maxSteps)
		}
		nw.Step()
	}
}

// Reject records a malformed message dropped by a handler.
func (nw *Network) Reject() { nw.metrics.Rejected++ }

// Equivocation records conflicting-message evidence found by a handler.
func (nw *Network) Equivocation() { nw.metrics.Equivocations++ }

// Node is one party's runtime: protocol instances register here, and the
// node is the Runtime handed to protocol constructors.
type Node struct {
	nw      *Network
	idx     int
	routes  proto.Table[*Envelope]
	replay  []*Envelope // parked messages a Register released, delivered before the next step
	depth   int
	rng     *rand.Rand
	crashed bool
}

// N returns the party count.
func (nd *Node) N() int { return nd.nw.n }

// F returns the corruption bound.
func (nd *Node) F() int { return nd.nw.f }

// Self returns this node's 0-based index.
func (nd *Node) Self() int { return nd.idx }

// Depth returns the causal depth currently being processed — the
// asynchronous round number of the triggering message.
func (nd *Node) Depth() int { return nd.depth }

// RandReader exposes the node's deterministic randomness source.
func (nd *Node) RandReader() *rand.Rand { return nd.rng }

// Crash makes the node drop all future deliveries (a crashed party).
func (nd *Node) Crash() { nd.crashed = true }

// Register installs the handler for an instance path and schedules replay of
// any buffered messages for it.
func (nd *Node) Register(inst string, h Handler) {
	nd.replay = append(nd.replay, nd.routes.Register(inst, h)...)
}

// Retire removes the handlers under an instance path prefix and drops every
// message for them, parked or late.
func (nd *Node) Retire(prefix string) { nd.routes.Retire(prefix) }

// Send routes a message to the same instance path on node `to`. The message
// inherits causal depth current+1.
func (nd *Node) Send(inst string, to int, body []byte) {
	nd.nw.enqueue(nd.idx, to, inst, body, nd.depth+1)
}

// Multicast sends to all n parties, self included (the paper's multicast).
func (nd *Node) Multicast(inst string, body []byte) {
	for to := 0; to < nd.nw.n; to++ {
		nd.Send(inst, to, body)
	}
}

// Reject records a malformed inbound message.
func (nd *Node) Reject() { nd.nw.Reject() }

// Equivocation records conflicting-message evidence against a sender.
func (nd *Node) Equivocation() { nd.nw.Equivocation() }
