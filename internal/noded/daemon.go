// Package noded is the multi-process node daemon: one OS process hosting
// exactly one party of the cluster. It decodes its key material and peer
// map from a config file, joins the authenticated TCP mesh through a
// livenet.Party, and exposes a newline-JSON control RPC over which the
// launcher (internal/nodenet) starts protocol instances, awaits decisions,
// injects connection faults, and collects stats. SIGTERM (or the stop op)
// triggers graceful shutdown: no new launches, open ledgers drained via
// RequestStop, TCP writers flushed, exit 0.
package noded

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core/abc"
	"repro/internal/livenet"
	"repro/internal/pki"
	"repro/internal/wal"
)

// Daemon is one running party process.
type Daemon struct {
	cfg   *Config
	self  int
	ring  *pki.Keyring
	party *livenet.Party
	drv   *livenet.Driver
	jn    *journal // nil without Config.WALDir

	mu        sync.Mutex
	insts     map[string]*instance
	conns     map[net.Conn]struct{} // accepted control conns, closed on shutdown
	ctlClosed bool                  // set (under mu) once Shutdown has swept conns

	// recovery holds the journal-replay counters of Stats, fixed at New
	// (one process observes at most one restart) and merged with live WAL
	// counters in stats().
	recovery Stats

	draining atomic.Bool
	ctl      net.Listener
	stopOnce sync.Once

	syncStop       chan struct{} // closes the WAL sync ticker
	syncDone       chan struct{}
	compactPending atomic.Bool
	walErrLogged   atomic.Bool

	// ctlWriteErrs counts control-RPC response writes that failed — a
	// launcher that never saw its answer. Surfaced via Stats so dropped
	// control I/O is observable, mirroring the mesh's drop counters.
	ctlWriteErrs atomic.Int64
}

// instance tracks one launched protocol instance. dec is written under the
// driver lock (complete) and read under it (await's done predicate).
type instance struct {
	kind, tag string
	dec       *Decision
	eng       *abc.Engine // ledger only: drain hook
	retired   bool        // absorbed into a WAL snapshot and retired from the runtime
}

// New builds the daemon: decodes the keyring (validating it against the
// board) and binds the mesh listener. The process is dialable immediately;
// Start connects outward and opens the control listener.
func New(cfg *Config) (*Daemon, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	ring, err := cfg.Keys.Keyring()
	if err != nil {
		return nil, err
	}
	if len(ring.Board.Parties) != cfg.N {
		return nil, fmt.Errorf("noded: board has %d parties, config says %d", len(ring.Board.Parties), cfg.N)
	}

	// With a WAL dir, recover durable state before the mesh carries any
	// traffic: fold the snapshot + record tail into cursor state and a
	// replay list, resume the mesh from the journaled cursors, and hold
	// inbound peer delivery until replay has rebuilt the dispatcher state.
	var jn *journal
	var snap *walSnapshot
	var items []replayItem
	var resume *livenet.Resume
	if cfg.WALDir != "" {
		wlog, err := wal.Open(cfg.WALDir)
		if err != nil {
			return nil, fmt.Errorf("noded: open wal: %w", err)
		}
		jn = newJournal(wlog, cfg.N, ring.Self)
		if snap, items, err = jn.fold(); err != nil {
			wlog.Close()
			return nil, err
		}
		var sendBase []uint64
		if snap != nil {
			sendBase = snap.Send
		}
		resume = jn.resume(sendBase)
	}
	recovering := snap != nil || len(items) > 0

	pcfg := livenet.PartyConfig{
		Self:   ring.Self,
		N:      cfg.N,
		F:      cfg.F,
		Listen: cfg.Listen,
		Key:    ring.Sig,
		Board:  ring.Board.SigKeys(),
		Seed:   cfg.Seed,
		WAN:    cfg.WAN,
	}
	if jn != nil {
		pcfg.Journal = jn.appendFrame
		pcfg.GateAcks = true
		pcfg.BeforeWrite = jn.syncAndPublish
		pcfg.Resume = resume
		pcfg.Hold = recovering
	}
	party, err := livenet.NewParty(pcfg)
	if err != nil {
		if jn != nil {
			jn.log.Close()
		}
		return nil, err
	}
	d := &Daemon{
		cfg:   cfg,
		self:  ring.Self,
		ring:  ring,
		party: party,
		drv:   livenet.NewDriver(party, cfg.awaitTimeout()),
		jn:    jn,
		insts: make(map[string]*instance),
		conns: make(map[net.Conn]struct{}),
	}
	if jn != nil {
		jn.publish = party.SetJournaled
		if recovering {
			if err := d.recoverFromJournal(snap, items); err != nil {
				d.drv.Close()
				party.Close()
				jn.log.Close()
				return nil, err
			}
		}
		jn.log.ReleaseRecovered()
		party.Release()
		d.syncStop = make(chan struct{})
		d.syncDone = make(chan struct{})
		go d.syncLoop()
	}
	return d, nil
}

// Self returns this daemon's party index.
func (d *Daemon) Self() int { return d.self }

// MeshAddr returns the bound mesh data address.
func (d *Daemon) MeshAddr() string { return d.party.Addr() }

// ControlAddr returns the bound control RPC address ("" before Start).
func (d *Daemon) ControlAddr() string {
	if d.ctl == nil {
		return ""
	}
	return d.ctl.Addr().String()
}

// Start opens the control listener and begins dialing peers.
func (d *Daemon) Start() error {
	ln, err := net.Listen("tcp", d.cfg.Control)
	if err != nil {
		return fmt.Errorf("noded: control listen: %w", err)
	}
	d.ctl = ln
	return d.party.Connect(d.cfg.Peers)
}

// Serve accepts control connections until shutdown closes the listener.
func (d *Daemon) Serve() error {
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		conn, err := d.ctl.Accept()
		if err != nil {
			if d.draining.Load() || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.serveConn(conn)
		}()
	}
}

// maxControlLine bounds one control request (proposals ride inside).
const maxControlLine = 1 << 20

// opSyncTimeout bounds a control op's wait for its journal record to reach
// the dispatcher and fsync. party.Do drops tasks once the party is closed,
// so an unbounded wait could park a control goroutine forever on a daemon
// that is tearing down; the timeout converts that into an RPC error.
const opSyncTimeout = 30 * time.Second

func (d *Daemon) serveConn(conn net.Conn) {
	defer conn.Close()
	// Register so Shutdown can close this conn and unblock Scan — clients
	// may hold idle control connections open across the daemon's lifetime.
	d.mu.Lock()
	if d.ctlClosed {
		d.mu.Unlock()
		return
	}
	d.conns[conn] = struct{}{}
	d.mu.Unlock()
	defer func() {
		d.mu.Lock()
		delete(d.conns, conn)
		d.mu.Unlock()
	}()
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 64*1024), maxControlLine)
	for sc.Scan() {
		var req Request
		var resp *Response
		if err := json.Unmarshal(sc.Bytes(), &req); err != nil {
			resp = &Response{Error: fmt.Sprintf("malformed request: %v", err)}
		} else {
			resp = d.handle(&req)
		}
		raw, err := json.Marshal(resp)
		if err != nil {
			raw, _ = json.Marshal(&Response{Error: err.Error()})
		}
		if _, err := conn.Write(append(raw, '\n')); err != nil {
			// The launcher on the far side never saw this response; count
			// it and log once per connection (same class as the PR 5
			// swallowed conn.Write in livenet), then give up on the conn.
			d.ctlWriteErrs.Add(1)
			if !d.draining.Load() {
				log.Printf("noded: party %d control response write failed: %v", d.self, err)
			}
			return
		}
		if req.Op == OpStop {
			// Shutdown after the ack is on the wire; the caller sees exit
			// via process wait, not this connection.
			go d.Shutdown()
			return
		}
	}
}

func (d *Daemon) handle(req *Request) *Response {
	switch req.Op {
	case OpPing:
		return &Response{OK: true}
	case OpLaunch:
		if err := d.launch(req); err != nil {
			return &Response{Error: err.Error()}
		}
		return &Response{OK: true}
	case OpAwait:
		dec, err := d.await(req.Tag, time.Duration(req.TimeoutMS)*time.Millisecond)
		if err != nil {
			return &Response{Error: err.Error()}
		}
		return &Response{OK: true, Decision: dec}
	case OpDrain:
		if err := d.drain(req.Tag); err != nil {
			return &Response{Error: err.Error()}
		}
		return &Response{OK: true}
	case OpStats:
		return &Response{OK: true, Stats: d.stats()}
	case OpSever:
		if req.To < 0 || req.To >= d.cfg.N {
			return &Response{Error: fmt.Sprintf("sever target %d out of range", req.To)}
		}
		return &Response{OK: true, Severed: d.party.Sever(req.To)}
	case OpStop:
		return &Response{OK: true}
	}
	return &Response{Error: fmt.Sprintf("unknown op %q", req.Op)}
}

// register claims a tag for a new instance while launches are still open.
func (d *Daemon) register(kind, tag string) (*instance, error) {
	if tag == "" {
		return nil, errors.New("noded: launch without a tag")
	}
	if d.draining.Load() {
		return nil, errors.New("noded: shutting down, launches refused")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, dup := d.insts[tag]; dup {
		return nil, fmt.Errorf("noded: %w %q", errDuplicateTag, tag)
	}
	inst := &instance{kind: kind, tag: tag}
	d.insts[tag] = inst
	return inst, nil
}

// complete records an instance's decision exactly once and wakes awaiters.
func (d *Daemon) complete(inst *instance, dec *Decision) {
	d.drv.Update(func() {
		if inst.dec == nil {
			inst.dec = dec
		}
	})
}

// await blocks until the tagged instance decides. timeout 0 falls back to
// the driver's configured cap.
func (d *Daemon) await(tag string, timeout time.Duration) (*Decision, error) {
	d.mu.Lock()
	inst := d.insts[tag]
	d.mu.Unlock()
	if inst == nil {
		return nil, fmt.Errorf("noded: await on unknown instance %q", tag)
	}
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	var dec *Decision
	err := d.drv.Await(ctx, func() bool {
		dec = inst.dec
		return dec != nil
	})
	if err != nil {
		return nil, err
	}
	return dec, nil
}

// drain asks open ledgers to stop: the named one, or all when tag is "".
// A fully drained log commits its all-stop slot and fires done at every
// party, so every process must be asked (the launcher broadcasts this).
func (d *Daemon) drain(tag string) error {
	d.mu.Lock()
	var targets []*instance
	for _, inst := range d.insts {
		if inst.kind == "ledger" && !inst.retired && (tag == "" || inst.tag == tag) {
			targets = append(targets, inst)
		}
	}
	d.mu.Unlock()
	if tag != "" && len(targets) == 0 {
		return fmt.Errorf("noded: drain on unknown ledger %q", tag)
	}
	durables := make([]chan error, len(targets))
	for k, inst := range targets {
		inst := inst
		done := make(chan error, 1)
		durables[k] = done
		// The engine is assigned by the launch's own dispatcher task, so
		// read it inside ours: party.Do is FIFO, and a drain can only be
		// requested after the launch RPC returned — its build task is
		// already queued ahead of this one. Journaling here (not at the
		// RPC edge) puts the record at the drain's processed position; the
		// ack below still waits for the record to be fsynced, so a crash
		// after a drain ack can never forget the drain (same ack-gating
		// contract as launch).
		d.party.Do(func() {
			d.mu.Lock()
			eng := inst.eng
			d.mu.Unlock()
			if eng == nil {
				done <- nil
				return
			}
			var err error
			if d.jn != nil {
				d.jn.appendOp(recDrain, []byte(inst.tag))
				err = d.jn.syncAndPublish()
			}
			eng.RequestStop()
			done <- err
		})
	}
	for _, done := range durables {
		select {
		case err := <-done:
			if err != nil {
				return fmt.Errorf("noded: journal drain %q: %w", tag, err)
			}
		case <-time.After(opSyncTimeout):
			return fmt.Errorf("noded: drain %q never reached the dispatcher (shutting down?)", tag)
		}
	}
	return nil
}

func (d *Daemon) stats() *Stats {
	t := d.party.TotalTally()
	tcp := d.party.TCPStats()
	st := &Stats{
		Party:         d.self,
		Msgs:          t.Msgs,
		Bytes:         t.Bytes,
		Rejected:      d.party.Rejected(),
		Equivocations: d.party.Equivocations(),

		Frames:        tcp.Frames,
		Syscalls:      tcp.Syscalls,
		Dropped:       tcp.Dropped,
		Resends:       tcp.Resends,
		Redials:       tcp.Redials,
		BackoffResets: tcp.BackoffResets,
		AuthRejects:   tcp.AuthRejects,
		Dups:          tcp.Dups,
		WANDelays:     tcp.WANDelays,
		WANLosses:     tcp.WANLosses,

		ControlWriteErrs: d.ctlWriteErrs.Load(),
	}
	if d.jn != nil {
		wst := d.jn.log.Stats()
		st.Restarts = d.recovery.Restarts
		st.ReplayedRecords = d.recovery.ReplayedRecords
		st.ReplayedFrames = d.recovery.ReplayedFrames
		st.ReplayedOps = d.recovery.ReplayedOps
		st.SelfMismatches = d.party.Node().SelfMismatches()
		st.WALTruncatedBytes = d.recovery.WALTruncatedBytes
		st.WALAppends = wst.Appends
		st.WALSyncs = wst.Syncs
		st.WALCompactions = wst.Compactions
		st.WALSnapshotBytes = wst.SnapshotBytes
	}
	return st
}

// Shutdown runs the graceful exit path (SIGTERM and the stop op): refuse
// new launches, drain open ledgers bounded by the config's drain timeout,
// flush TCP writers, stop the control listener and the party. Idempotent;
// concurrent callers block until the first completes.
func (d *Daemon) Shutdown() {
	d.stopOnce.Do(func() {
		d.draining.Store(true)

		// Ask every open ledger to stop, then wait (bounded) for their
		// all-stop slots to commit. Peer daemons drain concurrently —
		// the mesh stays up until the wait resolves.
		d.mu.Lock()
		var ledgers []*instance
		for _, inst := range d.insts {
			if inst.eng != nil {
				ledgers = append(ledgers, inst)
			}
		}
		d.mu.Unlock()
		var open []*instance
		d.drv.Update(func() { // dec is guarded by the driver lock
			for _, inst := range ledgers {
				if inst.dec == nil {
					open = append(open, inst)
				}
			}
		})
		for _, inst := range open {
			eng := inst.eng
			d.party.Do(func() { eng.RequestStop() })
		}
		if len(open) > 0 {
			ctx, cancel := context.WithTimeout(context.Background(), d.cfg.drainTimeout())
			for _, inst := range open {
				in := inst
				// Best effort: a wedged ledger must not hold the process
				// hostage past the drain timeout.
				_ = d.drv.Await(ctx, func() bool { return in.dec != nil })
			}
			cancel()
		}

		if d.jn != nil {
			// Stop the sync ticker before tearing anything down (it
			// schedules dispatcher work), then take the graceful quiescent
			// point: one compaction attempt so a clean restart resumes from
			// a snapshot.
			close(d.syncStop)
			<-d.syncDone
			d.finalCompact()
		}

		d.party.Flush()
		if d.ctl != nil {
			d.ctl.Close()
		}
		// Close accepted control conns too, or Serve's conn goroutines stay
		// parked in Scan on launcher-held connections and the process never
		// exits. drv.Close below wakes any conn blocked inside an await.
		d.mu.Lock()
		d.ctlClosed = true
		for c := range d.conns {
			c.Close()
		}
		d.mu.Unlock()
		d.drv.Close()
		d.party.Close()
		if d.jn != nil {
			// The dispatcher is stopped: no appender is left. Flush the tail
			// and close the log so the last records are durable.
			if err := d.jn.syncAndPublish(); err != nil && d.walErrLogged.CompareAndSwap(false, true) {
				log.Printf("noded: party %d final wal sync failed: %v", d.self, err)
			}
			if err := d.jn.log.Close(); err != nil && d.walErrLogged.CompareAndSwap(false, true) {
				log.Printf("noded: party %d wal close failed: %v", d.self, err)
			}
		}
	})
}
