// Package livenet is a concurrent runtime for the protocol stack: every
// party runs its own dispatcher goroutine and messages travel over either
// in-process queues with random delivery jitter or real TCP connections. It
// implements the same proto.Runtime surface as the deterministic simulator,
// so every protocol in internal/core runs on it unchanged — this is the
// deployment-shaped execution path, while internal/sim remains the
// measurement and adversarial-testing path.
//
// One environment hosts a dispatcher: a Party (party.go) is one Node with
// its traffic meter and its outbound link, a *Mesh on TCP or a chanLink on
// the Channels transport. A noded process hosts one Party; the in-process
// Network is n of them, wired on TCP exactly as n noded processes are.
//
// Concurrency contract: all protocol callbacks and handlers of one node run
// on that node's dispatcher goroutine, preserving the single-threaded
// protocol contract. External code interacts with a node only through
// Do(fn), which schedules fn onto the dispatcher.
//
// The TCP fabric is built from per-party Mesh endpoints (mesh.go): every
// connection is authenticated by a signed-challenge handshake bound to the
// party's bulletin-PKI key, frames are sequence-numbered and retained until
// acked so links survive connection drops (reconnect + exponential backoff
// + resend), and per-link WAN emulation can replay wide-area latency
// profiles.
package livenet

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/crypto/sig"
	"repro/internal/proto"
)

// Transport selects the message fabric.
type Transport int

// Available transports.
const (
	// Channels delivers through in-process queues with random jitter.
	Channels Transport = iota
	// TCP delivers over authenticated loopback TCP meshes (full mesh).
	TCP
)

// Auth binds transport identity to the bulletin PKI: Keys[i] signs party
// i's connection handshakes and Board[i] verifies them. With Auth nil on
// the TCP transport, a deterministic keyset is derived from the Seed so the
// handshake is still always signed (tests); real clusters pass the PKI keys
// so wire identity and protocol identity are the same key.
type Auth struct {
	Keys  []sig.PrivateKey
	Board []sig.PublicKey
}

// Config describes a live network.
type Config struct {
	N, F      int
	Seed      int64
	Transport Transport
	// Jitter is the maximum random delivery delay for the Channels
	// transport (0 = immediate). It creates real asynchrony.
	Jitter time.Duration
	// Auth supplies the handshake signing keys for the TCP transport
	// (nil = deterministic keys derived from Seed).
	Auth *Auth
	// WAN optionally emulates per-link wide-area delay/jitter/loss on the
	// TCP transport (nil = no emulation). Ignored by Channels.
	WAN *WANProfile
}

// Network is a running live cluster: n Parties in one process.
type Network struct {
	parties []*Party
}

// inProcBackoffMin/Max tune the redial backoff for loopback, where a peer
// that refuses a dial is back within milliseconds, not seconds.
const (
	inProcBackoffMin = 5 * time.Millisecond
	inProcBackoffMax = 500 * time.Millisecond
)

// New starts a live network with running dispatchers.
func New(cfg Config) (*Network, error) {
	if cfg.N <= 0 {
		return nil, errors.New("livenet: N must be positive")
	}
	nw := &Network{}
	switch cfg.Transport {
	case Channels:
		nodes := make([]*Node, cfg.N)
		for i := range nodes {
			nodes[i] = newNode(i, cfg.N, cfg.F, cfg.Seed)
		}
		for i, nd := range nodes {
			nw.parties = append(nw.parties, &Party{node: nd})
			nd.start(&chanLink{
				from: i, nodes: nodes, jitter: cfg.Jitter,
				rng: rand.New(rand.NewSource(cfg.Seed ^ 0x11ff + int64(i))),
			})
		}
	case TCP:
		if err := nw.connectTCP(cfg); err != nil {
			nw.Close()
			return nil, fmt.Errorf("livenet: tcp transport: %w", err)
		}
	default:
		return nil, fmt.Errorf("livenet: unknown transport %d", cfg.Transport)
	}
	return nw, nil
}

// connectTCP starts one mesh-backed Party per index and connects each to
// every address, as a launcher connects n noded processes.
func (nw *Network) connectTCP(cfg Config) error {
	auth := cfg.Auth
	if auth == nil {
		var err error
		if auth, err = DeriveAuth(cfg.N, cfg.Seed); err != nil {
			return err
		}
	}
	if len(auth.Keys) != cfg.N || len(auth.Board) != cfg.N {
		return fmt.Errorf("auth keyset has %d/%d keys, want %d", len(auth.Keys), len(auth.Board), cfg.N)
	}
	addrs := make([]string, cfg.N)
	for i := range addrs {
		p, err := NewParty(PartyConfig{
			Self: i, N: cfg.N, F: cfg.F,
			Key: auth.Keys[i], Board: auth.Board,
			Seed: cfg.Seed, WAN: cfg.WAN,
			BackoffMin: inProcBackoffMin, BackoffMax: inProcBackoffMax,
		})
		if err != nil {
			return err
		}
		nw.parties = append(nw.parties, p)
		addrs[i] = p.Addr()
	}
	for _, p := range nw.parties {
		if err := p.Connect(addrs); err != nil {
			return err
		}
	}
	return nil
}

// DeriveAuth builds a deterministic transport-auth keyset from a seed — the
// stand-in used when no bulletin-PKI keys are supplied, so the handshake is
// never unauthenticated.
func DeriveAuth(n int, seed int64) (*Auth, error) {
	rng := rand.New(rand.NewSource(seed ^ 0x6d657368)) // "mesh"
	a := &Auth{Keys: make([]sig.PrivateKey, n), Board: make([]sig.PublicKey, n)}
	for i := 0; i < n; i++ {
		k, err := sig.GenerateKey(rng)
		if err != nil {
			return nil, err
		}
		a.Keys[i] = k
		a.Board[i] = k.PK
	}
	return a, nil
}

// Node returns party i's runtime.
func (nw *Network) Node(i int) *Node { return nw.parties[i].node }

// Runtime returns party i's protocol-facing surface (driverHost).
func (nw *Network) Runtime(i int) proto.Runtime { return nw.parties[i].node }

// Launch schedules fn onto party i's dispatcher (driverHost).
func (nw *Network) Launch(i int, fn func()) { nw.parties[i].node.Do(fn) }

// Close stops every party's transport and dispatcher. It is idempotent.
func (nw *Network) Close() {
	var wg sync.WaitGroup
	for _, p := range nw.parties {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Close()
		}()
	}
	wg.Wait()
}

// TotalTally reports all traffic sent since the network started.
func (nw *Network) TotalTally() proto.Tally {
	var out proto.Tally
	for _, p := range nw.parties {
		out = out.Plus(p.TotalTally())
	}
	return out
}

// ByInstance sums every party's traffic under instance path tag.
func (nw *Network) ByInstance(tag string) proto.Tally {
	var out proto.Tally
	for _, p := range nw.parties {
		out = out.Plus(p.ByInstance(tag))
	}
	return out
}

// TCPStats sums the parties' mesh counters; Frames/Syscalls is the achieved
// write-coalescing factor. Zero on the Channels transport.
func (nw *Network) TCPStats() TCPStats {
	var s TCPStats
	for _, p := range nw.parties {
		s.add(p.TCPStats())
	}
	return s
}

// mesh returns party i's mesh endpoint, nil on Channels or out of range.
func (nw *Network) mesh(i int) *Mesh {
	if i < 0 || i >= len(nw.parties) {
		return nil
	}
	return nw.parties[i].mesh
}

// PeerDrops reports the frames charged against the (from, to) link: frames
// dropped to outbox overflow on the sender side, plus inbound handshakes at
// `to` rejected while claiming identity `from` (an impostor posing as
// `from` books its rejections here). Zero on the Channels transport and for
// self-sends.
func (nw *Network) PeerDrops(from, to int) int64 {
	mf, mt := nw.mesh(from), nw.mesh(to)
	if mf == nil || mt == nil {
		return 0
	}
	return mf.LinkDrops(to) + mt.AuthRejects(from)
}

// Sever force-closes the current (from → to) TCP connection; the mesh
// redials with backoff and resends unacked frames, so delivery resumes. It
// reports whether a live connection was actually killed (false while the
// link is still dialing, and always false on Channels).
func (nw *Network) Sever(from, to int) bool {
	m := nw.mesh(from)
	return m != nil && m.Sever(to)
}

// MeshAddr returns party i's TCP data listen address ("" on Channels).
func (nw *Network) MeshAddr(i int) string {
	if m := nw.mesh(i); m != nil {
		return m.Addr()
	}
	return ""
}

// Rejected reports the total malformed messages dropped across nodes.
func (nw *Network) Rejected() int64 {
	var t int64
	for _, p := range nw.parties {
		t += p.Rejected()
	}
	return t
}

// Equivocations reports the total conflicting-message evidence recorded
// across nodes.
func (nw *Network) Equivocations() int64 {
	var t int64
	for _, p := range nw.parties {
		t += p.Equivocations()
	}
	return t
}

// link is a node's outbound fabric: a *Mesh on TCP, a chanLink on
// Channels. The dispatcher calls Flush when its queue drains
// (flush-on-idle), which is what makes per-peer write coalescing safe: a
// node never blocks waiting for input while its own output sits in a
// buffer.
type link interface {
	Send(to int, inst string, body []byte)
	Flush()
}

// chanLink is a node's link on the Channels transport: each message goes
// straight onto the receiver's queue, after a random delay below jitter
// when jitter is positive.
type chanLink struct {
	from   int
	nodes  []*Node
	jitter time.Duration

	mu  sync.Mutex
	rng *rand.Rand
}

func (c *chanLink) Send(to int, inst string, body []byte) {
	b := append([]byte(nil), body...)
	if c.jitter > 0 {
		c.mu.Lock()
		d := time.Duration(c.rng.Int63n(int64(c.jitter)))
		c.mu.Unlock()
		if d > 0 {
			time.AfterFunc(d, func() { c.nodes[to].enqueue(c.from, 0, inst, b) })
			return
		}
	}
	c.nodes[to].enqueue(c.from, 0, inst, b)
}

func (c *chanLink) Flush() {}

type task struct {
	// Either a message…
	from int
	seq  uint64 // link sequence (0 for self-sends and the Channels fabric)
	inst string
	body []byte
	// …or a job.
	fn func()
}

// capturedSelf is one self-send generated while replaying the journal; it
// is matched against the journal's own self-frame records instead of being
// re-enqueued, so replay consumes rather than re-creates them.
type capturedSelf struct {
	inst string
	body []byte
}

// Node is one party's live runtime.
type Node struct {
	idx, n, f int
	link      link

	tmu     sync.Mutex // guards traffic: the dispatcher books, stats readers sum
	traffic proto.Meter

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []task
	routes proto.Table[task]
	closed bool

	// journal, when set (at construction), observes every
	// message task at the moment it is processed — the write-ahead record a
	// durable daemon appends before effects escape. Processing order, not
	// arrival order: parked frames are journaled when their handler finally
	// runs, which is the order a replay can reproduce.
	journal func(from int, seq uint64, inst string, body []byte)

	// Replay capture: written only on the dispatcher goroutine, inside a
	// Party.Replay critical section (the mismatch counter is atomic so
	// Stats RPCs can read it later).
	replaying      bool
	captured       []capturedSelf
	selfMismatches atomic.Int64

	rng           *rand.Rand // used only on the dispatcher goroutine
	rejected      atomic.Int64
	equivocations atomic.Int64
	done          sync.WaitGroup
	crashed       bool
}

var _ proto.Runtime = (*Node)(nil)

// newNode builds party self's dispatcher; start runs it.
func newNode(self, n, f int, seed int64) *Node {
	nd := &Node{
		idx: self, n: n, f: f,
		rng: rand.New(rand.NewSource(seed*7_368_787 + int64(self))),
	}
	nd.cond = sync.NewCond(&nd.mu)
	return nd
}

// start attaches the outbound link and launches the dispatcher.
func (nd *Node) start(l link) {
	nd.link = l
	nd.done.Add(1)
	go nd.dispatch()
}

// --- Node: proto.Runtime ---

// N returns the party count.
func (nd *Node) N() int { return nd.n }

// F returns the corruption bound.
func (nd *Node) F() int { return nd.f }

// Self returns this node's index.
func (nd *Node) Self() int { return nd.idx }

// Depth always returns 0: the live runtime does not track causal rounds.
func (nd *Node) Depth() int { return 0 }

// RandReader returns the dispatcher-local randomness source.
func (nd *Node) RandReader() *rand.Rand { return nd.rng }

// Reject counts a malformed inbound message.
func (nd *Node) Reject() { nd.rejected.Add(1) }

// Equivocation counts conflicting-message evidence against a sender.
func (nd *Node) Equivocation() { nd.equivocations.Add(1) }

// Register installs a handler and replays buffered messages for it.
func (nd *Node) Register(inst string, h proto.Handler) {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	if buf := nd.routes.Register(inst, h); len(buf) > 0 {
		nd.queue = append(nd.queue, buf...)
		nd.cond.Broadcast()
	}
}

// Retire removes the handlers under an instance path prefix and drops every
// message for them from now on. Frames already parked under the prefix are
// re-queued, so the dispatcher drops them the way it drops a late frame:
// journaled, so its sequence advances the recv cursor and can be acked.
func (nd *Node) Retire(prefix string) {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	nd.queue = append(nd.queue, nd.routes.Retire(prefix)...)
	nd.cond.Broadcast()
}

// Send routes a message to the same instance on node `to`.
func (nd *Node) Send(inst string, to int, body []byte) {
	if to < 0 || to >= nd.n {
		return
	}
	nd.tmu.Lock()
	nd.traffic.Record(inst, len(body))
	nd.tmu.Unlock()
	if nd.replaying && to == nd.idx {
		// Replayed handlers regenerate their self-sends; looping them back
		// through the queue would re-process (and re-journal) work the WAL
		// already accounts for. Capture instead: ConsumeSelf matches them
		// against the journal and FlushCapturedSelf re-enqueues only the
		// unprocessed surplus.
		nd.captured = append(nd.captured, capturedSelf{inst: inst, body: append([]byte(nil), body...)})
		return
	}
	nd.link.Send(to, inst, body)
}

// Multicast sends to all parties, self included.
func (nd *Node) Multicast(inst string, body []byte) {
	for to := 0; to < nd.n; to++ {
		nd.Send(inst, to, body)
	}
}

// Do schedules fn onto the node's dispatcher goroutine — the only legal way
// for external code to touch protocol state (e.g. calling Start).
func (nd *Node) Do(fn func()) {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	if nd.closed || nd.crashed {
		return
	}
	nd.queue = append(nd.queue, task{fn: fn})
	nd.cond.Broadcast()
}

// enqueue appends an inbound message (called by transports).
func (nd *Node) enqueue(from int, seq uint64, inst string, body []byte) {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	if nd.closed || nd.crashed {
		return
	}
	nd.queue = append(nd.queue, task{from: from, seq: seq, inst: inst, body: body})
	nd.cond.Broadcast()
}

// Replay re-processes one journaled message on the dispatcher goroutine —
// the recovery path's direct-injection hook, called only from inside a
// Party.Replay critical section. It bypasses the queue, the journal hook
// (the record is already durable) and transport dedup (the WAL is the
// authority on what was processed). A record whose handler is not yet
// registered parks like a live frame, one under a retired path is dropped;
// both report false.
func (nd *Node) Replay(from int, seq uint64, inst string, body []byte) bool {
	nd.mu.Lock()
	h, _ := nd.routes.Route(inst, task{from: from, seq: seq, inst: inst, body: body})
	nd.mu.Unlock()
	if h == nil {
		return false
	}
	h.Handle(from, body)
	return true
}

// dispatch is the node's event loop.
func (nd *Node) dispatch() {
	defer nd.done.Done()
	for {
		nd.mu.Lock()
		if len(nd.queue) == 0 && !nd.closed {
			// Going idle: everything this node sent while draining the
			// queue must reach the wire before we sleep. The flush runs
			// outside nd.mu so inbound enqueues are never blocked behind
			// a syscall; the re-check below catches anything that raced
			// in meanwhile.
			nd.mu.Unlock()
			nd.link.Flush()
			nd.mu.Lock()
		}
		for len(nd.queue) == 0 && !nd.closed {
			nd.cond.Wait()
		}
		if nd.closed {
			nd.mu.Unlock()
			return
		}
		t := nd.queue[0]
		nd.queue = nd.queue[1:]
		var h proto.Handler
		if t.fn == nil {
			var retired bool
			if h, retired = nd.routes.Route(t.inst, t); h == nil && !retired {
				nd.mu.Unlock() // parked until its handler registers
				continue
			}
		}
		nd.mu.Unlock()
		if t.fn != nil {
			t.fn()
			continue
		}
		// Journal at processing time: this is the order a replay can
		// reproduce (parking reorders arrival), and a retired straggler is
		// journaled too so its sequence becomes ackable.
		if nd.journal != nil {
			nd.journal(t.from, t.seq, t.inst, t.body)
		}
		if h != nil {
			h.Handle(t.from, t.body)
		}
	}
}

// Crash makes the node drop all future deliveries and jobs — a
// crash-faulty party on the live runtime.
func (nd *Node) Crash() {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	nd.queue = nil
	nd.routes = proto.Table[task]{}
	nd.crashed = true
}
