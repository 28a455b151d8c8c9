package livenet

// Party is the one environment a Node runs in: the dispatcher plus its
// outbound link. NewParty wires it to a Mesh endpoint — what a noded OS
// process hosts, the other n-1 parties living in other processes (or
// machines) reached through the authenticated TCP mesh. The in-process
// Network is n Parties: on TCP built by NewParty and Connect exactly like n
// processes, on Channels sharing in-process queues.

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"repro/internal/crypto/sig"
	"repro/internal/proto"
)

// PartyConfig describes one party's runtime in a multi-process cluster.
type PartyConfig struct {
	// Self is this party's index; N/F are the cluster shape.
	Self, N, F int
	// Listen is the mesh data listen address ("" selects 127.0.0.1:0).
	Listen string
	// Key signs transport handshakes; Board (length N) verifies peers.
	// These are the bulletin-PKI signing keys, so wire identity and
	// protocol identity are the same key.
	Key   sig.PrivateKey
	Board []sig.PublicKey
	// Seed feeds the dispatcher RNG and WAN emulation; every process must
	// use the cluster-wide seed so per-link WAN replay agrees end to end.
	Seed int64
	// WAN optionally emulates wide-area conditions on this party's inbound
	// links (nil = none).
	WAN *WANProfile
	// BackoffMin/BackoffMax bound the redial backoff (0 = mesh defaults).
	BackoffMin, BackoffMax time.Duration

	// Journal, when set, observes every message the dispatcher processes
	// in processing order (the daemon's write-ahead hook).
	Journal func(from int, seq uint64, inst string, body []byte)
	// GateAcks caps mesh acks at the journaled cursor (see MeshConfig).
	GateAcks bool
	// BeforeWrite is the mesh write-ahead barrier (see MeshConfig).
	BeforeWrite func() error
	// Resume restores mesh link cursors from a journal (nil = fresh).
	Resume *Resume
	// Hold blocks peer-frame delivery until Release — the recovery window
	// in which the journal is replayed. Inbound connections are accepted
	// (TCP backpressure holds the frames); self-sends and Do jobs pass.
	Hold bool
}

// Party is a running single-party runtime.
type Party struct {
	node *Node
	mesh *Mesh // nil on the Channels transport

	gate        chan struct{} // nil unless Hold; closed by Release
	releaseOnce sync.Once

	closeOnce sync.Once
}

// NewParty starts the dispatcher and binds the mesh listener. The party is
// not reachable-out until Connect supplies peer addresses, but it accepts
// inbound connections immediately, so processes may start in any order.
func NewParty(cfg PartyConfig) (*Party, error) {
	if cfg.N <= 0 || cfg.Self < 0 || cfg.Self >= cfg.N {
		return nil, fmt.Errorf("livenet: party %d of %d out of range", cfg.Self, cfg.N)
	}
	nd := newNode(cfg.Self, cfg.N, cfg.F, cfg.Seed)
	nd.journal = cfg.Journal
	p := &Party{node: nd}
	deliver := nd.enqueue
	if cfg.Hold {
		p.gate = make(chan struct{})
		deliver = func(from int, seq uint64, inst string, body []byte) {
			if from != cfg.Self {
				// Block the transport goroutine until recovery releases the
				// gate; TCP backpressure parks the peer's resend stream.
				<-p.gate
			}
			nd.enqueue(from, seq, inst, body)
		}
	}
	m, err := NewMesh(MeshConfig{
		Self:        cfg.Self,
		N:           cfg.N,
		Listen:      cfg.Listen,
		Key:         cfg.Key,
		Board:       cfg.Board,
		Deliver:     deliver,
		WAN:         cfg.WAN,
		Seed:        cfg.Seed,
		Resume:      cfg.Resume,
		GateAcks:    cfg.GateAcks,
		BeforeWrite: cfg.BeforeWrite,
		BackoffMin:  cfg.BackoffMin,
		BackoffMax:  cfg.BackoffMax,
	})
	if err != nil {
		return nil, fmt.Errorf("livenet: party %d mesh: %w", cfg.Self, err)
	}
	p.mesh = m
	nd.start(m)
	return p, nil
}

// Addr returns the mesh data listen address to advertise to peers.
func (p *Party) Addr() string { return p.mesh.Addr() }

// Connect supplies all peer data addresses (length N; own slot ignored) and
// starts the outbound dial loops.
func (p *Party) Connect(peers []string) error { return p.mesh.Connect(peers) }

// Self returns this party's index.
func (p *Party) Self() int { return p.node.idx }

// Node returns the party's protocol runtime.
func (p *Party) Node() *Node { return p.node }

// Runtime returns the protocol-facing surface (driverHost). Only the
// party's own index is hosted here.
func (p *Party) Runtime(i int) proto.Runtime {
	if i != p.node.idx {
		panic(fmt.Sprintf("livenet: party %d asked for runtime %d (other parties live in other processes)", p.node.idx, i))
	}
	return p.node
}

// Launch schedules fn onto the dispatcher goroutine (driverHost).
func (p *Party) Launch(i int, fn func()) {
	if i != p.node.idx {
		panic(fmt.Sprintf("livenet: party %d asked to launch on %d", p.node.idx, i))
	}
	p.node.Do(fn)
}

// Do schedules fn onto the dispatcher goroutine — the only legal way for
// external code (the control RPC) to touch protocol state.
func (p *Party) Do(fn func()) { p.node.Do(fn) }

// Replay runs fn on the dispatcher goroutine and blocks until it returns —
// the recovery critical section. Inside fn the caller re-processes journal
// records via Node.Replay and Node.ConsumeSelf; any self-send a replayed
// handler generates is captured (matched against the journal) instead of
// looping back, because the journal — not re-execution — is the authority
// on which self-sends were processed before the crash. Call before
// Connect, with the delivery gate still held.
func (p *Party) Replay(fn func()) {
	done := make(chan struct{})
	nd := p.node
	nd.Do(func() {
		nd.replaying = true
		fn()
		nd.replaying = false
		close(done)
	})
	<-done
}

// ConsumeSelf matches one journaled self-frame record against the oldest
// captured replay self-send. A match consumes the capture and reports
// true; a divergence (exhausted captures or differing content) counts a
// mismatch and reports false — the journal record still replays, keeping
// the durable order authoritative. Dispatcher context only (inside
// Party.Replay).
func (nd *Node) ConsumeSelf(inst string, body []byte) bool {
	if len(nd.captured) == 0 {
		nd.selfMismatches.Add(1)
		return false
	}
	c := nd.captured[0]
	nd.captured = nd.captured[1:]
	if c.inst != inst || !bytes.Equal(c.body, body) {
		nd.selfMismatches.Add(1)
		return false
	}
	return true
}

// FlushCapturedSelf enqueues the surplus captured self-sends — generated
// by replayed handlers but never processed (hence never journaled) before
// the crash — as fresh live tasks, preserving their generation order. They
// will be journaled normally when dispatched. Dispatcher context only
// (call at the end of the Party.Replay fn).
func (nd *Node) FlushCapturedSelf() int {
	n := len(nd.captured)
	for _, c := range nd.captured {
		nd.enqueue(nd.idx, 0, c.inst, c.body)
	}
	nd.captured = nil
	return n
}

// SelfMismatches reports replay self-sends that diverged from the journal
// (always zero for a faithful deterministic replay).
func (nd *Node) SelfMismatches() int64 { return nd.selfMismatches.Load() }

// Release opens the delivery gate held by PartyConfig.Hold: buffered and
// future peer frames start flowing to the dispatcher. Idempotent; no-op
// without Hold.
func (p *Party) Release() {
	p.releaseOnce.Do(func() {
		if p.gate != nil {
			close(p.gate)
		}
	})
}

// SetJournaled publishes the durable inbound cursor for peer `from` (ack
// gating; see Mesh.SetJournaled).
func (p *Party) SetJournaled(from int, seq uint64) { p.mesh.SetJournaled(from, seq) }

// SendCursors snapshots per-peer next-send sequences (compaction base).
func (p *Party) SendCursors() []uint64 { return p.mesh.SendCursors() }

// TransportSettled reports whether the mesh holds no unacked or
// out-of-order state a compaction snapshot would miss.
func (p *Party) TransportSettled() bool { return p.mesh.Settled() }

// Sever force-closes the current outbound connection to peer `to`; the
// mesh redials with backoff and resends unacked frames — the fault-
// injection hook for reconnect tests. It reports whether a live connection
// was actually killed (false while the link is still dialing).
func (p *Party) Sever(to int) bool { return p.mesh.Sever(to) }

// TotalTally reports all traffic this party sent since start.
func (p *Party) TotalTally() proto.Tally {
	p.node.tmu.Lock()
	defer p.node.tmu.Unlock()
	return p.node.traffic.Tally
}

// ByInstance sums this party's traffic under instance path tag (tag itself
// or any tag/… sub-path).
func (p *Party) ByInstance(tag string) proto.Tally {
	p.node.tmu.Lock()
	defer p.node.tmu.Unlock()
	return p.node.traffic.ByInstance(tag)
}

// TCPStats reports this endpoint's mesh counters (zero on Channels).
func (p *Party) TCPStats() TCPStats {
	if p.mesh == nil {
		return TCPStats{}
	}
	return p.mesh.Stats()
}

// Rejected reports malformed messages dropped by the protocol layer.
func (p *Party) Rejected() int64 { return p.node.rejected.Load() }

// Equivocations reports conflicting-message evidence recorded by the
// protocol layer.
func (p *Party) Equivocations() int64 { return p.node.equivocations.Load() }

// Flush pushes buffered outbound frames to the wire — part of graceful
// shutdown, so peers receive everything sent before exit.
func (p *Party) Flush() { p.mesh.Flush() }

// Close flushes and tears down the transport, then stops the dispatcher.
// It is idempotent.
func (p *Party) Close() {
	p.closeOnce.Do(func() {
		// Unblock transport goroutines parked on the delivery gate, or
		// mesh.Close's goroutine sweep would wait on them forever.
		p.Release()
		if p.mesh != nil {
			p.mesh.Close()
		}
		nd := p.node
		nd.mu.Lock()
		nd.closed = true
		nd.cond.Broadcast()
		nd.mu.Unlock()
		nd.done.Wait()
	})
}
