package livenet

import (
	"bufio"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log"
	mrand "math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/crypto/sig"
)

// Mesh is one party's endpoint of a full-mesh authenticated TCP transport.
// It is the unit shared by the two deployment shapes: the in-process TCP
// runtime builds n Meshes on loopback, and a noded process builds exactly
// one, with peer addresses pointing at other processes (or machines).
//
// Wire identity is bound to the bulletin PKI: every connection starts with a
// challenge–response handshake in which the dialer signs a fresh random
// challenge under its registered Schnorr key, so an impostor (or a replayed
// hello) is rejected before any protocol frame is read.
//
// Links are reliable across reconnects: every data frame carries a per-link
// sequence number and is retained in a bounded outbox until the receiver's
// cumulative ack (sent on the reverse direction of the same connection)
// covers it. On reconnect — after a peer restart, a severed connection, or a
// network blip — the dialer resends the unacked suffix and the receiver
// drops duplicates by sequence, giving exactly-once in-order delivery, which
// is what lets in-flight protocol instances resume after a drop.
//
// An optional per-link WANProfile emulates wide-area conditions in
// userspace: inbound frames are held for a seeded sampled one-way delay
// (plus jitter and loss-as-retransmission latency) before delivery.
//
// For crash recovery a Mesh can resume from journaled cursors (Resume),
// gate its cumulative acks on what the owner has made durable (GateAcks +
// SetJournaled), and run a write barrier before any byte reaches a socket
// (BeforeWrite) — together these give the write-ahead invariant a durable
// daemon needs: no frame escapes this process before the journal records
// that caused it are on disk, and no peer discards a frame we would lose
// by crashing.
type Mesh struct {
	self, n int
	key     sig.PrivateKey
	board   []sig.PublicKey
	deliver func(from int, seq uint64, inst string, body []byte)

	ln    net.Listener
	out   []*outLink // indexed by destination; nil at self
	in    []*inLink  // indexed by source; nil at self
	peers []string

	seed        int64
	gateAcks    bool
	beforeWrite func() error

	backoffMin time.Duration
	backoffMax time.Duration
	outboxCap  int

	stopc     chan struct{}
	closed    atomic.Bool
	connected atomic.Bool
	wg        sync.WaitGroup
}

// Resume carries the durable per-peer link cursors a restarted party
// recovered from its journal, so the mesh rejoins exactly where the dead
// process left off instead of renumbering from zero.
type Resume struct {
	// Send[i] is the last sequence number this party assigned on the
	// (self → i) link that the journal's snapshot base covers; regenerated
	// sends continue from Send[i]+1 and peers drop the already-delivered
	// prefix by seq dedup.
	Send []uint64
	// Recv[i] is the highest contiguous inbound sequence from peer i whose
	// processing was journaled; frames at or below it are duplicates.
	Recv []uint64
	// Sparse[i] lists journaled inbound sequences from peer i above
	// Recv[i] — frames processed out of arrival order (handler parking)
	// whose lower neighbours died unjournaled. They are duplicates too;
	// the frontier absorbs them as the peer refills the gaps.
	Sparse [][]uint64
}

// MeshConfig configures one party's mesh endpoint.
type MeshConfig struct {
	// Self is this party's index; N is the total party count.
	Self, N int
	// Listen is the data listen address ("" selects 127.0.0.1:0).
	Listen string
	// Key signs the transport handshake; Board (length N) verifies peers.
	Key   sig.PrivateKey
	Board []sig.PublicKey
	// Deliver receives every inbound protocol frame (and self-sends, which
	// carry seq 0). seq is the frame's link sequence number — the durable
	// identity a journaling owner records. Deliver is called from transport
	// goroutines and must not block for long.
	Deliver func(from int, seq uint64, inst string, body []byte)
	// WAN optionally emulates per-link wide-area conditions on inbound
	// frames; Seed makes the emulation replayable (and seeds redial
	// jitter).
	WAN  *WANProfile
	Seed int64
	// Resume restores per-peer link cursors from a journal (nil = fresh
	// start at zero).
	Resume *Resume
	// GateAcks caps outgoing cumulative acks at the journaled cursor
	// published via SetJournaled: a peer must not discard a frame this
	// party would lose by crashing before its fsync.
	GateAcks bool
	// BeforeWrite, when set, runs before any byte is written to an
	// outbound data socket — the write-ahead barrier (typically the
	// journal's Sync). A barrier error fails the write; the link retires
	// the connection and the outbox resend recovers the frames.
	BeforeWrite func() error
	// BackoffMin/BackoffMax bound the exponential redial backoff
	// (0 selects defaults).
	BackoffMin, BackoffMax time.Duration
	// OutboxFrames caps the per-link unacked-frame retention; beyond it new
	// sends are dropped and counted (0 selects defaultOutboxFrames).
	OutboxFrames int
}

const (
	// defaultFlushEvery bounds how long a frame may sit in a coalescing
	// buffer: the timer flushes pending buffers at this period, so frame
	// latency stays bounded even when a dispatcher never goes idle and the
	// overflow write-through never fires (sustained small-frame load).
	defaultFlushEvery   = 2 * time.Millisecond
	defaultBackoffMin   = 25 * time.Millisecond
	defaultBackoffMax   = 1 * time.Second
	defaultOutboxFrames = 1 << 16

	// handshake framing
	meshMagic        = "msh1"
	challengeLen     = 32
	handshakeOK      = 0x4b
	handshakeTimeout = 5 * time.Second

	// frame types after the handshake
	frameData = 0x01
	frameAck  = 0x02
)

// tcpWriteBuffer sizes each link's coalescing buffer: large enough to
// absorb a whole multicast burst of protocol frames between dispatcher-idle
// flushes, small enough that n² connections stay cheap.
const tcpWriteBuffer = 64 * 1024

// countingConn counts the Write calls that actually reach the socket —
// the syscall side of the frames-per-syscall coalescing metric — and runs
// the owner's write-ahead barrier first: no frame byte may reach the wire
// before the journal records that caused it are durable. A barrier failure
// fails the write, which retires the connection; the retained outbox makes
// that a delay, not a loss.
type countingConn struct {
	net.Conn
	before func() error
	writes atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	if c.before != nil {
		if err := c.before(); err != nil {
			return 0, fmt.Errorf("write barrier: %w", err)
		}
	}
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// authDomain separates transport-handshake signatures from every protocol
// signature so a handshake transcript can never double as a protocol vote.
const authDomain = "repro/mesh-auth/v1"

func authMsg(from, to int, challenge []byte) []byte {
	b := make([]byte, 0, len(authDomain)+8+len(challenge))
	b = append(b, authDomain...)
	var be [4]byte
	binary.BigEndian.PutUint32(be[:], uint32(from))
	b = append(b, be[:]...)
	binary.BigEndian.PutUint32(be[:], uint32(to))
	b = append(b, be[:]...)
	return append(b, challenge...)
}

// outLink is the sending half of one directed link (self → to): the current
// connection with its coalescing writer, and the seq-numbered outbox of
// frames not yet covered by a cumulative ack.
type outLink struct {
	to int

	mu       sync.Mutex
	conn     *countingConn // nil while disconnected
	bw       *bufio.Writer
	nextSeq  uint64
	outbox   []outFrame // unacked frames, ascending seq
	attached int        // successful attaches (first connect + redials)

	frames        atomic.Int64 // data frames accepted (excludes resends)
	drops         atomic.Int64 // frames dropped to outbox overflow
	resends       atomic.Int64 // frames rewritten during reconnect resync
	redials       atomic.Int64 // re-established connections after the first
	backoffResets atomic.Int64 // backoff returned to min after growing
	syscalls      atomic.Int64 // socket writes of retired connections
	logged        bool
}

type outFrame struct {
	seq uint64
	buf []byte // fully framed: type, seq, lengths, inst, body
}

// inLink is the receiving half of one directed link (from → self): the
// highest contiguous sequence delivered (duplicates below it are dropped),
// the pending cumulative ack, and the optional WAN delay line. After a
// crash recovery, sparse holds journaled sequences above the contiguous
// frontier — processed-out-of-order frames whose lower neighbours died
// unjournaled — so the resent gap frames deliver exactly once while the
// already-journaled ones drop as duplicates.
type inLink struct {
	from int

	mu        sync.Mutex
	conn      net.Conn // current inbound connection (ack channel)
	lastSeq   uint64
	lastAcked uint64
	sparse    map[uint64]struct{}

	journaled   atomic.Uint64 // owner-published durable cursor (ack cap)
	dups        atomic.Int64  // duplicate frames dropped after reconnect
	authRejects atomic.Int64  // handshakes rejected claiming this identity
	wan         *wanLink      // nil when the link profile is zero
}

// NewMesh binds the data listener and starts accepting authenticated peer
// connections. Outbound dialing starts at Connect, once every party's
// address is known.
func NewMesh(cfg MeshConfig) (*Mesh, error) {
	if cfg.N <= 0 || cfg.Self < 0 || cfg.Self >= cfg.N {
		return nil, fmt.Errorf("livenet: mesh: bad self=%d n=%d", cfg.Self, cfg.N)
	}
	if len(cfg.Board) != cfg.N {
		return nil, fmt.Errorf("livenet: mesh: board has %d keys, want %d", len(cfg.Board), cfg.N)
	}
	if cfg.Deliver == nil {
		return nil, errors.New("livenet: mesh: Deliver is required")
	}
	listen := cfg.Listen
	if listen == "" {
		listen = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return nil, fmt.Errorf("livenet: mesh listen: %w", err)
	}
	m := &Mesh{
		self:        cfg.Self,
		n:           cfg.N,
		key:         cfg.Key,
		board:       cfg.Board,
		deliver:     cfg.Deliver,
		ln:          ln,
		out:         make([]*outLink, cfg.N),
		in:          make([]*inLink, cfg.N),
		seed:        cfg.Seed,
		gateAcks:    cfg.GateAcks,
		beforeWrite: cfg.BeforeWrite,
		backoffMin:  cfg.BackoffMin,
		backoffMax:  cfg.BackoffMax,
		outboxCap:   cfg.OutboxFrames,
		stopc:       make(chan struct{}),
	}
	if m.backoffMin <= 0 {
		m.backoffMin = defaultBackoffMin
	}
	if m.backoffMax < m.backoffMin {
		m.backoffMax = defaultBackoffMax
	}
	if m.outboxCap <= 0 {
		m.outboxCap = defaultOutboxFrames
	}
	for i := 0; i < cfg.N; i++ {
		if i == cfg.Self {
			continue
		}
		ol := &outLink{to: i}
		il := &inLink{from: i, sparse: make(map[uint64]struct{})}
		if r := cfg.Resume; r != nil {
			if i < len(r.Send) {
				ol.nextSeq = r.Send[i]
			}
			if i < len(r.Recv) {
				il.lastSeq = r.Recv[i]
				il.journaled.Store(r.Recv[i])
			}
			if i < len(r.Sparse) {
				for _, s := range r.Sparse[i] {
					if s > il.lastSeq {
						il.sparse[s] = struct{}{}
					}
				}
			}
		}
		if lp := cfg.WAN.Link(i, cfg.Self); !lp.zero() {
			from := i
			il.wan = &wanLink{
				profile: lp,
				rng:     mrand.New(mrand.NewSource(linkSeed(cfg.Seed, i, cfg.Self))),
				deliver: func(seq uint64, inst string, body []byte) { m.deliver(from, seq, inst, body) },
			}
		}
		m.out[i] = ol
		m.in[i] = il
	}
	m.wg.Add(1)
	go m.acceptLoop()
	return m, nil
}

// Addr returns the bound data listen address (for launcher config files).
func (m *Mesh) Addr() string { return m.ln.Addr().String() }

// Connect records every party's data address and starts the dial loops and
// the flush/ack timer. peers[self] is ignored.
func (m *Mesh) Connect(peers []string) error {
	if len(peers) != m.n {
		return fmt.Errorf("livenet: mesh connect: %d peer addrs, want %d", len(peers), m.n)
	}
	if !m.connected.CompareAndSwap(false, true) {
		return errors.New("livenet: mesh connect: already connected")
	}
	m.peers = peers
	for i, l := range m.out {
		if l == nil {
			continue
		}
		m.wg.Add(1)
		go m.dialLoop(l, peers[i])
	}
	m.wg.Add(1)
	go m.timerLoop()
	return nil
}

// --- sending ---

// Send frames a protocol message onto the (self → to) link. The frame is
// retained until acked, so a connection drop delays it rather than losing
// it; only outbox overflow (a peer gone far longer than the retention
// window) drops and counts it.
func (m *Mesh) Send(to int, inst string, body []byte) {
	if m.closed.Load() || to < 0 || to >= m.n {
		return
	}
	if to == m.self {
		// Self-sends never cross the wire; they carry seq 0 and are
		// journaled (and replayed) by body order, not link order.
		m.deliver(m.self, 0, inst, append([]byte(nil), body...))
		return
	}
	l := m.out[to]
	l.mu.Lock()
	if len(l.outbox) >= m.outboxCap {
		l.mu.Unlock()
		l.drops.Add(1)
		return
	}
	l.nextSeq++
	buf := encodeDataFrame(l.nextSeq, inst, body)
	l.outbox = append(l.outbox, outFrame{seq: l.nextSeq, buf: buf})
	l.frames.Add(1)
	if l.bw != nil {
		if _, err := l.bw.Write(buf); err != nil {
			m.killLocked(l, err)
		}
	}
	l.mu.Unlock()
}

func encodeDataFrame(seq uint64, inst string, body []byte) []byte {
	buf := make([]byte, 15+len(inst)+len(body))
	buf[0] = frameData
	binary.BigEndian.PutUint64(buf[1:9], seq)
	binary.BigEndian.PutUint32(buf[9:13], uint32(len(inst)+len(body)))
	binary.BigEndian.PutUint16(buf[13:15], uint16(len(inst)))
	copy(buf[15:], inst)
	copy(buf[15+len(inst):], body)
	return buf
}

// Flush pushes every coalescing buffer to the wire (dispatcher-idle hook).
func (m *Mesh) Flush() {
	for _, l := range m.out {
		if l != nil {
			m.flushLink(l)
		}
	}
}

func (m *Mesh) flushLink(l *outLink) {
	l.mu.Lock()
	if l.bw != nil && l.bw.Buffered() > 0 {
		if err := l.bw.Flush(); err != nil {
			m.killLocked(l, err)
		}
	}
	l.mu.Unlock()
}

// killLocked retires a failing connection; the retained outbox means the
// dial loop's resync recovers every unacked frame. Callers hold l.mu.
func (m *Mesh) killLocked(l *outLink, err error) {
	if l.conn != nil {
		l.syscalls.Add(l.conn.writes.Load())
		_ = l.conn.Close()
		l.conn = nil
		l.bw = nil
	}
	if !l.logged && !m.closed.Load() {
		l.logged = true
		log.Printf("livenet: mesh %d→%d connection failed (will redial): %v", m.self, l.to, err)
	}
}

// Sever force-closes the current (self → to) connection — the test hook for
// reconnect/backoff coverage and the launcher's forced-kill scenario. It
// reports whether a live connection was actually killed: during startup the
// link may not have attached yet, in which case severing is a no-op and the
// caller should retry to guarantee a mid-flight kill.
func (m *Mesh) Sever(to int) bool {
	if to < 0 || to >= m.n || to == m.self {
		return false
	}
	l := m.out[to]
	l.mu.Lock()
	live := l.conn != nil
	if live {
		m.killLocked(l, errors.New("severed"))
	}
	l.mu.Unlock()
	return live
}

// --- dialing, handshake, acks ---

// nextBackoff advances one redial-backoff step: double the current
// interval, clamp to [min, max], then apply ±25% jitter (re-clamped) so a
// cluster of parties redialing one dead peer does not thunder in lockstep.
// The cap holds under jitter: no returned interval ever exceeds max.
func nextBackoff(cur, min, max time.Duration, rng *mrand.Rand) time.Duration {
	next := cur * 2
	if next > max {
		next = max
	}
	if rng != nil && next >= 4 {
		next += time.Duration(rng.Int63n(int64(next/2)+1)) - next/4
	}
	if next < min {
		next = min
	}
	if next > max {
		next = max
	}
	return next
}

func (m *Mesh) dialLoop(l *outLink, addr string) {
	defer m.wg.Done()
	backoff := m.backoffMin
	grew := false
	rng := mrand.New(mrand.NewSource(linkSeed(m.seed^0x6261636b6f6666, m.self, l.to))) // "backoff"
	for {
		if m.closed.Load() {
			return
		}
		conn, err := m.dialAndHandshake(addr, l.to)
		if err != nil {
			if m.closed.Load() {
				return
			}
			select {
			case <-m.stopc:
				return
			case <-time.After(backoff):
			}
			backoff = nextBackoff(backoff, m.backoffMin, m.backoffMax, rng)
			grew = true
			continue
		}
		if grew {
			l.backoffResets.Add(1)
			grew = false
		}
		backoff = m.backoffMin
		m.attach(l, conn)
		m.readAcks(l, conn) // blocks until the connection dies
		l.mu.Lock()
		if l.conn != nil && l.conn.Conn == conn {
			m.killLocked(l, errors.New("ack reader exited"))
		}
		l.mu.Unlock()
	}
}

func (m *Mesh) dialAndHandshake(addr string, to int) (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", addr, handshakeTimeout)
	if err != nil {
		return nil, err
	}
	if err := conn.SetDeadline(time.Now().Add(handshakeTimeout)); err != nil {
		conn.Close()
		return nil, err
	}
	hello := make([]byte, len(meshMagic)+4)
	copy(hello, meshMagic)
	binary.BigEndian.PutUint32(hello[len(meshMagic):], uint32(m.self))
	if _, err := conn.Write(hello); err != nil {
		conn.Close()
		return nil, err
	}
	challenge := make([]byte, challengeLen)
	if _, err := io.ReadFull(conn, challenge); err != nil {
		conn.Close()
		return nil, err
	}
	s := m.key.Sign(authMsg(m.self, to, challenge))
	if _, err := conn.Write(s.Bytes()); err != nil {
		conn.Close()
		return nil, err
	}
	var ok [1]byte
	if _, err := io.ReadFull(conn, ok[:]); err != nil || ok[0] != handshakeOK {
		conn.Close()
		return nil, fmt.Errorf("handshake rejected by peer %d", to)
	}
	if err := conn.SetDeadline(time.Time{}); err != nil {
		conn.Close()
		return nil, err
	}
	return conn, nil
}

// attach installs a fresh connection on the link and resends the unacked
// outbox, in sequence order, so the receiver's dedup sees a contiguous run.
func (m *Mesh) attach(l *outLink, conn net.Conn) {
	cc := &countingConn{Conn: conn, before: m.beforeWrite}
	l.mu.Lock()
	if m.closed.Load() {
		// Close already swept this link's connection slot; installing now
		// would leak the conn past Close's teardown and wedge wg.Wait.
		l.mu.Unlock()
		_ = conn.Close()
		return
	}
	l.conn = cc
	l.bw = bufio.NewWriterSize(cc, tcpWriteBuffer)
	l.attached++
	redial := l.attached > 1
	if redial {
		l.redials.Add(1)
	}
	for _, f := range l.outbox {
		if _, err := l.bw.Write(f.buf); err != nil {
			m.killLocked(l, err)
			break
		}
		if redial {
			l.resends.Add(1)
		}
	}
	if l.bw != nil && l.bw.Buffered() > 0 {
		if err := l.bw.Flush(); err != nil {
			m.killLocked(l, err)
		}
	}
	l.mu.Unlock()
}

// readAcks drains cumulative acks from the reverse direction of the
// outbound connection, pruning the outbox.
func (m *Mesh) readAcks(l *outLink, conn net.Conn) {
	for {
		var hdr [9]byte
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			return
		}
		if hdr[0] != frameAck {
			return
		}
		ack := binary.BigEndian.Uint64(hdr[1:])
		l.mu.Lock()
		i := 0
		for i < len(l.outbox) && l.outbox[i].seq <= ack {
			i++
		}
		if i > 0 {
			l.outbox = append(l.outbox[:0], l.outbox[i:]...)
		}
		l.mu.Unlock()
	}
}

// --- accepting ---

func (m *Mesh) acceptLoop() {
	defer m.wg.Done()
	for {
		conn, err := m.ln.Accept()
		if err != nil {
			return // listener closed
		}
		m.wg.Add(1)
		go m.serveConn(conn)
	}
}

// serveConn authenticates one inbound connection and then reads data frames
// from it for the rest of its life, acking on the reverse direction.
func (m *Mesh) serveConn(conn net.Conn) {
	defer m.wg.Done()
	defer conn.Close()
	from, err := m.serverHandshake(conn)
	if err != nil {
		return
	}
	il := m.in[from]
	il.mu.Lock()
	il.conn = conn // newest connection wins the ack channel
	il.mu.Unlock()
	defer func() {
		il.mu.Lock()
		if il.conn == conn {
			il.conn = nil
		}
		il.mu.Unlock()
	}()
	for {
		var hdr [15]byte
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			return
		}
		if hdr[0] != frameData {
			return
		}
		seq := binary.BigEndian.Uint64(hdr[1:9])
		total := binary.BigEndian.Uint32(hdr[9:13])
		instLen := binary.BigEndian.Uint16(hdr[13:15])
		if total > 1<<24 || uint32(instLen) > total {
			return
		}
		buf := make([]byte, total)
		if _, err := io.ReadFull(conn, buf); err != nil {
			return
		}
		if m.closed.Load() {
			return
		}
		il.mu.Lock()
		deliverable := seq == il.lastSeq+1
		if deliverable {
			il.lastSeq = seq
			// Absorb journaled out-of-order sequences now contiguous with
			// the frontier: the resent gap frame just delivered, and the
			// frames above it were already processed (and journaled) by the
			// previous incarnation, so they stay duplicates.
			for {
				if _, ok := il.sparse[il.lastSeq+1]; !ok {
					break
				}
				delete(il.sparse, il.lastSeq+1)
				il.lastSeq++
			}
		}
		il.mu.Unlock()
		if !deliverable {
			// Below the frontier, inside the sparse set, or a hole a
			// byzantine sender skipped: either way a duplicate or
			// undeliverable — drop, never double-deliver.
			il.dups.Add(1)
			continue
		}
		inst, body := string(buf[:instLen]), buf[instLen:]
		if il.wan != nil {
			il.wan.push(seq, inst, body)
		} else {
			m.deliver(from, seq, inst, body)
		}
	}
}

// serverHandshake validates the dialer's identity claim with a fresh signed
// challenge. A bad magic, out-of-range identity, invalid signature, or
// replayed transcript is rejected before any protocol frame is accepted.
func (m *Mesh) serverHandshake(conn net.Conn) (int, error) {
	if err := conn.SetDeadline(time.Now().Add(handshakeTimeout)); err != nil {
		return -1, err
	}
	hello := make([]byte, len(meshMagic)+4)
	if _, err := io.ReadFull(conn, hello); err != nil {
		return -1, err
	}
	if string(hello[:len(meshMagic)]) != meshMagic {
		return -1, errors.New("bad magic")
	}
	from := int(binary.BigEndian.Uint32(hello[len(meshMagic):]))
	if from < 0 || from >= m.n || from == m.self {
		return -1, fmt.Errorf("bad peer id %d", from)
	}
	challenge := make([]byte, challengeLen)
	if _, err := rand.Read(challenge); err != nil {
		return -1, err
	}
	if _, err := conn.Write(challenge); err != nil {
		return -1, err
	}
	sb := make([]byte, sig.Size)
	if _, err := io.ReadFull(conn, sb); err != nil {
		m.in[from].authRejects.Add(1)
		return -1, err
	}
	s, err := sig.SignatureFromBytes(sb)
	if err != nil || !sig.Verify(m.board[from], authMsg(from, m.self, challenge), s) {
		m.in[from].authRejects.Add(1)
		return -1, fmt.Errorf("auth failed for claimed peer %d", from)
	}
	if _, err := conn.Write([]byte{handshakeOK}); err != nil {
		return -1, err
	}
	if err := conn.SetDeadline(time.Time{}); err != nil {
		return -1, err
	}
	return from, nil
}

// --- timer: flush + acks ---

// timerLoop is both the max-frame-latency bound for the coalescing writers
// and the cumulative-ack pump: each tick flushes pending outbound buffers
// and acks newly delivered sequences on every inbound link.
func (m *Mesh) timerLoop() {
	defer m.wg.Done()
	tick := time.NewTicker(defaultFlushEvery)
	defer tick.Stop()
	for {
		select {
		case <-m.stopc:
			return
		case <-tick.C:
			m.Flush()
			for _, il := range m.in {
				if il != nil {
					m.ackLink(il)
				}
			}
		}
	}
}

func (m *Mesh) ackLink(il *inLink) {
	il.mu.Lock()
	ack := il.lastSeq
	if m.gateAcks {
		// A cumulative ack licenses the peer to discard its copies. Cap it
		// at the journaled cursor: a delivered-but-unjournaled frame dies
		// with a crash, and only the peer's retained copy can refill it.
		if j := il.journaled.Load(); j < ack {
			ack = j
		}
	}
	if il.conn != nil && ack > il.lastAcked {
		var f [9]byte
		f[0] = frameAck
		binary.BigEndian.PutUint64(f[1:], ack)
		if _, err := il.conn.Write(f[:]); err != nil {
			_ = il.conn.Close()
			il.conn = nil
		} else {
			il.lastAcked = ack
		}
	}
	il.mu.Unlock()
}

// --- recovery hooks ---

// SetJournaled publishes the highest contiguous inbound sequence from peer
// `from` whose processing the owner has made durable. With GateAcks set,
// cumulative acks never exceed it. The cursor is monotone.
func (m *Mesh) SetJournaled(from int, seq uint64) {
	if from < 0 || from >= m.n || m.in[from] == nil {
		return
	}
	il := m.in[from]
	for {
		cur := il.journaled.Load()
		if seq <= cur || il.journaled.CompareAndSwap(cur, seq) {
			return
		}
	}
}

// SendCursors snapshots the per-destination next-send sequence numbers —
// the send side of a compaction snapshot. Index self is zero.
func (m *Mesh) SendCursors() []uint64 {
	out := make([]uint64, m.n)
	for i, l := range m.out {
		if l == nil {
			continue
		}
		l.mu.Lock()
		out[i] = l.nextSeq
		l.mu.Unlock()
	}
	return out
}

// Settled reports whether the transport holds no state a compaction
// snapshot would miss: every outbox is empty (all sent frames acked and
// discardable) and no inbound link still has out-of-order journaled
// sequences waiting for gap refills.
func (m *Mesh) Settled() bool {
	for _, l := range m.out {
		if l == nil {
			continue
		}
		l.mu.Lock()
		pending := len(l.outbox) > 0 || (l.bw != nil && l.bw.Buffered() > 0)
		l.mu.Unlock()
		if pending {
			return false
		}
	}
	for _, il := range m.in {
		if il == nil {
			continue
		}
		il.mu.Lock()
		holes := len(il.sparse) > 0
		il.mu.Unlock()
		if holes {
			return false
		}
	}
	return true
}

// --- stats, shutdown ---

// TCPStats aggregates mesh transport counters: one endpoint's, or summed
// over a Network's parties.
type TCPStats struct {
	Frames   int64 // data frames accepted for sending (excludes resends)
	Syscalls int64 // data-path socket writes (coalesced flushes)
	Dropped  int64 // frames dropped to outbox overflow

	Resends       int64 // frames rewritten during reconnect resyncs
	Redials       int64 // connections re-established after the first
	BackoffResets int64 // exponential backoff returns to minimum
	AuthRejects   int64 // inbound handshakes rejected
	Dups          int64 // duplicate inbound frames dropped by seq dedup

	WANDelays int64 // inbound frames held by WAN emulation
	WANLosses int64 // loss→retransmit latency events injected
}

func (s *TCPStats) add(o TCPStats) {
	s.Frames += o.Frames
	s.Syscalls += o.Syscalls
	s.Dropped += o.Dropped
	s.Resends += o.Resends
	s.Redials += o.Redials
	s.BackoffResets += o.BackoffResets
	s.AuthRejects += o.AuthRejects
	s.Dups += o.Dups
	s.WANDelays += o.WANDelays
	s.WANLosses += o.WANLosses
}

// Stats snapshots this endpoint's counters.
func (m *Mesh) Stats() TCPStats {
	var st TCPStats
	for _, l := range m.out {
		if l == nil {
			continue
		}
		st.Frames += l.frames.Load()
		st.Dropped += l.drops.Load()
		st.Resends += l.resends.Load()
		st.Redials += l.redials.Load()
		st.BackoffResets += l.backoffResets.Load()
		st.Syscalls += l.syscalls.Load()
		l.mu.Lock()
		if l.conn != nil {
			st.Syscalls += l.conn.writes.Load()
		}
		l.mu.Unlock()
	}
	for _, il := range m.in {
		if il == nil {
			continue
		}
		st.AuthRejects += il.authRejects.Load()
		st.Dups += il.dups.Load()
		if il.wan != nil {
			st.WANDelays += il.wan.delays.Load()
			st.WANLosses += il.wan.losses.Load()
		}
	}
	return st
}

// LinkDrops reports outbox-overflow drops on the (self → to) link.
func (m *Mesh) LinkDrops(to int) int64 {
	if to < 0 || to >= m.n || m.out[to] == nil {
		return 0
	}
	return m.out[to].drops.Load()
}

// AuthRejects reports rejected inbound handshakes that claimed identity
// `from` — the impostor counter.
func (m *Mesh) AuthRejects(from int) int64 {
	if from < 0 || from >= m.n || m.in[from] == nil {
		return 0
	}
	return m.in[from].authRejects.Load()
}

// Close flushes pending writers best-effort and tears the endpoint down. It
// is idempotent.
func (m *Mesh) Close() {
	if !m.closed.CompareAndSwap(false, true) {
		return
	}
	// Final drain so frames written just before shutdown reach peers that
	// are still up (graceful-shutdown flush). A failed flush strands the
	// peer's tail frames: count it like any other dead link (killLocked
	// retires the conn and logs once) instead of discarding the error.
	for _, l := range m.out {
		if l == nil {
			continue
		}
		l.mu.Lock()
		if l.bw != nil && l.bw.Buffered() > 0 {
			if err := l.bw.Flush(); err != nil {
				l.drops.Add(1)
				m.killLocked(l, err)
			}
		}
		l.mu.Unlock()
	}
	close(m.stopc)
	_ = m.ln.Close()
	for _, l := range m.out {
		if l == nil {
			continue
		}
		l.mu.Lock()
		if l.conn != nil {
			_ = l.conn.Close()
			l.conn = nil
			l.bw = nil
		}
		l.mu.Unlock()
	}
	for _, il := range m.in {
		if il == nil {
			continue
		}
		if il.wan != nil {
			il.wan.close()
		}
		il.mu.Lock()
		if il.conn != nil {
			_ = il.conn.Close()
			il.conn = nil
		}
		il.mu.Unlock()
	}
	m.wg.Wait()
}
