// Package proto defines the runtime surface protocols are written against.
// Two runtimes implement it:
//
//   - internal/sim — the deterministic single-threaded network simulator
//     with adversarial scheduling and cost accounting (tests, experiments);
//   - internal/livenet — a concurrent runtime where each party runs its own
//     dispatcher goroutine and messages travel over buffered queues or real
//     TCP loopback connections (deployment-shaped executions).
//
// Protocol state machines are single-threaded by contract: a runtime must
// deliver all messages of one node sequentially, so protocol code never
// locks. Handlers must tolerate messages arriving before local activation:
// both runtimes route through one Table, which parks messages for instance
// paths that are not yet registered and drops those for retired ones, and
// both book what they send on one Meter.
package proto

import (
	"context"
	"math/rand"
	"strings"

	"repro/internal/order"
)

// Handler consumes messages addressed to one protocol instance on one node.
type Handler interface {
	Handle(from int, body []byte)
}

// HandlerFunc adapts a function to Handler.
type HandlerFunc func(from int, body []byte)

// Handle implements Handler.
func (f HandlerFunc) Handle(from int, body []byte) { f(from, body) }

// Runtime is one party's view of the network, handed to protocol
// constructors.
type Runtime interface {
	// N is the total number of parties.
	N() int
	// F is the corruption bound.
	F() int
	// Self is this party's 0-based index.
	Self() int
	// Depth reports the asynchronous round (causal depth) of the message
	// currently being processed; runtimes without causal tracking return 0.
	Depth() int
	// RandReader is this party's randomness source. It is only used from
	// the party's dispatch context, so implementations need no locking.
	RandReader() *rand.Rand
	// Register installs the handler for an instance path and replays any
	// buffered messages addressed to it. The replay is deferred: the handler
	// is never called before Register returns, so a constructor may register
	// several instances and wire them together before any sees traffic.
	Register(inst string, h Handler)
	// Retire removes the handlers under an instance path prefix (the path
	// and every prefix/… sub-path) and drops every message for them from
	// then on, parked or late: how a finished instance gives back its state.
	Retire(prefix string)
	// Send routes a message to the same instance path on party `to`.
	Send(inst string, to int, body []byte)
	// Multicast sends to all n parties, self included.
	Multicast(inst string, body []byte)
	// Reject records a malformed or mis-attributed inbound message.
	Reject()
	// Equivocation records cryptographic evidence that a sender lied — two
	// conflicting messages where the protocol permits at most one (double
	// votes, conflicting FINISH bits, pinned-value flips). Distinct from
	// Reject: a rejected message is garbage, an equivocation is proof of a
	// Byzantine sender.
	Equivocation()
}

// EnvelopeOverhead approximates the per-message framing a networked
// deployment adds (length, sender, instance-path length).
const EnvelopeOverhead = 12

// Tally is a (messages, bytes) traffic count.
type Tally struct {
	Msgs  int64
	Bytes int64
}

// Add books one message of the given cost.
func (t *Tally) Add(bytes int64) {
	t.Msgs++
	t.Bytes += bytes
}

// Plus returns the sum of two tallies.
func (t Tally) Plus(o Tally) Tally { return Tally{t.Msgs + o.Msgs, t.Bytes + o.Bytes} }

// Meter books the messages one sender puts on the wire, in total (the
// embedded Tally) and per instance path. Both runtimes meter through it, so
// a tally means the same thing whichever runtime produced it. The zero value
// is ready to use; a Meter does no locking.
type Meter struct {
	Tally
	perInst map[string]*Tally
}

// Record books one message on instance path inst, charged len(body) +
// len(inst) + EnvelopeOverhead bytes.
func (m *Meter) Record(inst string, bodyLen int) {
	cost := int64(bodyLen + len(inst) + EnvelopeOverhead)
	m.Add(cost)
	t := m.perInst[inst]
	if t == nil {
		if m.perInst == nil {
			m.perInst = make(map[string]*Tally)
		}
		t = &Tally{}
		m.perInst[inst] = t
	}
	t.Add(cost)
}

// ByPrefix sums the traffic over instance paths with the given prefix.
func (m *Meter) ByPrefix(prefix string) Tally {
	var t Tally
	for _, inst := range order.SortedKeys(m.perInst) {
		if strings.HasPrefix(inst, prefix) {
			t = t.Plus(*m.perInst[inst])
		}
	}
	return t
}

// ByInstance sums the traffic of path tag itself and of every sub-path
// tag/… — one protocol instance's full footprint. (ByPrefix(tag) would also
// count a sibling tag that has tag as a textual prefix.)
func (m *Meter) ByInstance(tag string) Tally {
	t := m.ByPrefix(tag + "/")
	if own := m.perInst[tag]; own != nil {
		t = t.Plus(*own)
	}
	return t
}

// Driver is the session-level contract over a runtime: it is what lets one
// long-lived cluster serve many concurrent protocol instances, identically
// on the simulator and on the live runtime. Instance launchers use it in a
// fixed pattern — wire instances with Launch, record their outputs inside
// Update, block in Await until a completion predicate holds:
//
//   - Launch(i, fn) runs fn in node i's dispatch context (the simulator
//     calls it inline; the live runtime schedules it onto the node's
//     dispatcher goroutine). Per-node ordering of launched fns is preserved.
//   - Update(fn) runs fn under the driver's completion lock and wakes every
//     Await. Protocol callbacks MUST route shared-state mutations through it:
//     on the simulator it is a plain call, on the live runtime it is the
//     only thing making the collector safe against concurrent dispatchers.
//   - Await(ctx, done) blocks until done() reports true, evaluating done
//     under the same lock Update uses. The simulator implementation DRIVES
//     the network (delivering messages until done, the budget exhausts, or
//     the queue drains); the live implementation only waits, because nodes
//     run on their own goroutines. Await is safe to call from multiple
//     goroutines: concurrent simulator waiters serialize, each stepping the
//     network until its own predicate holds.
//
// done() must be monotone (once true, stays true) — instance completion is.
type Driver interface {
	Runtime(i int) Runtime
	Launch(i int, fn func())
	Update(fn func())
	Await(ctx context.Context, done func() bool) error
}
