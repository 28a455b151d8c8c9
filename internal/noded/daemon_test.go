package noded

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/pki"
)

// testCluster is an in-process daemon cluster; restart tests need the
// configs and daemon handles, not just control clients.
type testCluster struct {
	cfgs    []*Config
	daemons []*Daemon
	clients []*Client
}

// startDaemon boots one party from its config and returns a pinged client.
// Restarts come through here: the config holds the addresses the party
// bound at first boot, and the daemon binds them again.
func (tc *testCluster) startDaemon(t *testing.T, i int) {
	t.Helper()
	tc.newDaemon(t, i)
	tc.serve(t, i)
}

// newDaemon builds party i, which binds its mesh listener, and records the
// bound address in the config.
func (tc *testCluster) newDaemon(t *testing.T, i int) {
	t.Helper()
	d, err := New(tc.cfgs[i])
	if err != nil {
		t.Fatalf("new party %d: %v", i, err)
	}
	tc.daemons[i] = d
	tc.cfgs[i].Listen = d.MeshAddr()
}

// serve starts party i, which binds its control listener and dials its
// peers, records the bound control address in the config and dials it.
func (tc *testCluster) serve(t *testing.T, i int) {
	t.Helper()
	d := tc.daemons[i]
	if err := d.Start(); err != nil {
		t.Fatalf("start party %d: %v", i, err)
	}
	go d.Serve()
	tc.cfgs[i].Control = d.ControlAddr()
	c, err := Dial(tc.cfgs[i].Control, 5*time.Second)
	if err != nil {
		t.Fatalf("dial party %d: %v", i, err)
	}
	if _, err := c.Call(&Request{Op: OpPing}, 5*time.Second); err != nil {
		t.Fatalf("ping party %d: %v", i, err)
	}
	tc.clients[i] = c
}

// startClusterWAL runs n daemons inside the test process — every layer of
// noded (config round trip, mesh handshake, control RPC) is real; only the
// process boundary is missing (cmd/nodenet tests cover that). Every party
// binds its mesh listener on an ephemeral port before any dials, so the
// shared peer list holds bound addresses and no port is ever released and
// re-bound at first boot. A non-empty walRoot gives each party a journal
// dir under it.
func startClusterWAL(t *testing.T, n, f int, seed int64, walRoot string) *testCluster {
	t.Helper()
	rings, _, err := pki.SetupSeeded(n, seed)
	if err != nil {
		t.Fatal(err)
	}
	peers := make([]string, n)
	tc := &testCluster{
		cfgs:    make([]*Config, n),
		daemons: make([]*Daemon, n),
		clients: make([]*Client, n),
	}
	for i := 0; i < n; i++ {
		tc.cfgs[i] = &Config{
			N: n, F: f, Seed: seed,
			Listen: "127.0.0.1:0", Control: "127.0.0.1:0", Peers: peers,
			Keys:           rings[i].Config(),
			AwaitTimeoutMS: int((60 * time.Second).Milliseconds()),
			DrainTimeoutMS: int((30 * time.Second).Milliseconds()),
		}
		if walRoot != "" {
			tc.cfgs[i].WALDir = fmt.Sprintf("%s/party%d", walRoot, i)
		}
		tc.newDaemon(t, i)
		peers[i] = tc.cfgs[i].Listen
	}
	for i := 0; i < n; i++ {
		tc.serve(t, i)
	}
	t.Cleanup(func() {
		var wg sync.WaitGroup
		for _, d := range tc.daemons {
			wg.Add(1)
			go func(d *Daemon) { defer wg.Done(); d.Shutdown() }(d)
		}
		wg.Wait()
		for _, c := range tc.clients {
			c.Close()
		}
	})
	return tc
}

func startCluster(t *testing.T, n, f int, seed int64) []*Client {
	t.Helper()
	return startClusterWAL(t, n, f, seed, "").clients
}

// croak tears one daemon down abruptly — no ledger drain, no compaction, no
// WAL close — the closest an in-process test gets to SIGKILL (the true
// kill -9 path is covered by the nodenet chaos harness). The WAL file is
// deliberately abandoned open, exactly as a crash leaves it.
func (tc *testCluster) croak(i int) {
	d := tc.daemons[i]
	d.stopOnce.Do(func() {
		d.draining.Store(true)
		if d.jn != nil {
			close(d.syncStop)
			<-d.syncDone
		}
		if d.ctl != nil {
			d.ctl.Close()
		}
		d.mu.Lock()
		d.ctlClosed = true
		for c := range d.conns {
			c.Close()
		}
		d.mu.Unlock()
		d.drv.Close()
		d.party.Close()
	})
	tc.clients[i].Close()
}

func awaitAll(t *testing.T, clients []*Client, tag string) []*Decision {
	t.Helper()
	decs := make([]*Decision, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *Client) {
			defer wg.Done()
			resp, err := c.Call(&Request{Op: OpAwait, Tag: tag}, 0)
			if err != nil {
				t.Errorf("await party %d: %v", i, err)
				return
			}
			decs[i] = resp.Decision
		}(i, c)
	}
	wg.Wait()
	if t.Failed() {
		t.Fatalf("await %q failed", tag)
	}
	return decs
}

// launchDrained launches req on every party and then drains its ledger on
// every party, so the ledger decides once it has delivered its preload.
func launchDrained(t *testing.T, clients []*Client, req *Request) {
	t.Helper()
	for _, op := range []*Request{req, {Op: OpDrain, Tag: req.Tag}} {
		for i, c := range clients {
			if _, err := c.Call(op, 10*time.Second); err != nil {
				t.Fatalf("%s %q party %d: %v", op.Op, op.Tag, i, err)
			}
		}
	}
}

// waitIdle polls one party's stats until its message count stops moving:
// every open ledger has committed its preload and launches no more slots.
func waitIdle(t *testing.T, c *Client) {
	t.Helper()
	var last int64 = -1
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(50 * time.Millisecond) {
		resp, err := c.Call(&Request{Op: OpStats}, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Stats.Msgs > 0 && resp.Stats.Msgs == last {
			return
		}
		last = resp.Stats.Msgs
	}
	t.Fatal("party never went idle")
}

// TestDaemonElectionAgrees runs one election across 4 daemons, each hosting
// one party over the authenticated mesh, and checks every process reports
// the same leader — the core cross-process agreement check.
func TestDaemonElectionAgrees(t *testing.T) {
	clients := startCluster(t, 4, 1, 11)
	for i, c := range clients {
		if _, err := c.Call(&Request{Op: OpLaunch, Kind: "election", Tag: "e", Genesis: []byte("g")}, 10*time.Second); err != nil {
			t.Fatalf("launch party %d: %v", i, err)
		}
	}
	decs := awaitAll(t, clients, "e")
	for i, d := range decs {
		if d.Kind != "election" || d.Tag != "e" {
			t.Fatalf("party %d decision %+v", i, d)
		}
		if d.Leader != decs[0].Leader || d.ByDefault != decs[0].ByDefault {
			t.Fatalf("party %d elected %d (byDefault=%v), party 0 elected %d (byDefault=%v)",
				i, d.Leader, d.ByDefault, decs[0].Leader, decs[0].ByDefault)
		}
	}
}

// TestDaemonVBANamedPredicate runs a VBA whose validity predicate crosses
// the control plane by name, with distinct proposals; all daemons must
// decide one identical predicate-satisfying value.
func TestDaemonVBANamedPredicate(t *testing.T) {
	clients := startCluster(t, 4, 1, 12)
	for i, c := range clients {
		req := &Request{
			Op: OpLaunch, Kind: "vba", Tag: "v", Genesis: []byte("g"),
			Input:     []byte(fmt.Sprintf("ok:p%d", i)),
			Predicate: "prefix:ok:",
		}
		if _, err := c.Call(req, 10*time.Second); err != nil {
			t.Fatalf("launch party %d: %v", i, err)
		}
	}
	decs := awaitAll(t, clients, "v")
	for i, d := range decs {
		if !strings.HasPrefix(d.Value, "ok:") {
			t.Fatalf("party %d decided %q, violating the predicate", i, d.Value)
		}
		if d.Value != decs[0].Value {
			t.Fatalf("party %d decided %q, party 0 decided %q", i, d.Value, decs[0].Value)
		}
	}
}

// TestDaemonLedgerDrainDigest launches a streaming ledger on every daemon,
// drains it through the control plane, and checks all parties report the
// same final slot and the same ordered-log digest covering every submitted
// transaction — atomic broadcast across processes.
func TestDaemonLedgerDrainDigest(t *testing.T) {
	clients := startCluster(t, 4, 1, 13)
	const txCount, txBytes = 8, 48
	for i, c := range clients {
		req := &Request{
			Op: OpLaunch, Kind: "ledger", Tag: "l", Genesis: []byte("g"),
			TxCount: txCount, TxBytes: txBytes,
		}
		if _, err := c.Call(req, 10*time.Second); err != nil {
			t.Fatalf("launch party %d: %v", i, err)
		}
	}
	for i, c := range clients {
		if _, err := c.Call(&Request{Op: OpDrain, Tag: "l"}, 10*time.Second); err != nil {
			t.Fatalf("drain party %d: %v", i, err)
		}
	}
	decs := awaitAll(t, clients, "l")
	for i, d := range decs {
		if d.Value != decs[0].Value || d.FinalSlot != decs[0].FinalSlot {
			t.Fatalf("party %d log (slot %d, %s) != party 0 log (slot %d, %s)",
				i, d.FinalSlot, d.Value, decs[0].FinalSlot, decs[0].Value)
		}
	}
	if err := CheckLedger(decs, txCount, txBytes); err != nil {
		t.Fatal(err)
	}
}

// TestDaemonControlErrors pins the control-plane failure modes: unknown
// ops, unknown kinds and predicates, duplicate tags, awaits on unknown
// tags.
func TestDaemonControlErrors(t *testing.T) {
	clients := startCluster(t, 4, 1, 14)
	c := clients[0]
	if _, err := c.Call(&Request{Op: "frobnicate"}, 5*time.Second); err == nil {
		t.Fatal("unknown op accepted")
	}
	if _, err := c.Call(&Request{Op: OpLaunch, Kind: "nope", Tag: "x"}, 5*time.Second); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err := c.Call(&Request{Op: OpLaunch, Kind: "vba", Tag: "x", Predicate: "weird"}, 5*time.Second); err == nil {
		t.Fatal("unknown predicate accepted")
	}
	if _, err := c.Call(&Request{Op: OpAwait, Tag: "ghost", TimeoutMS: 1000}, 5*time.Second); err == nil {
		t.Fatal("await on unknown tag accepted")
	}
	if _, err := c.Call(&Request{Op: OpLaunch, Kind: "coin", Tag: "dup", Genesis: []byte("g")}, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Call(&Request{Op: OpLaunch, Kind: "coin", Tag: "dup", Genesis: []byte("g")}, 5*time.Second); err == nil {
		t.Fatal("duplicate tag accepted")
	}
	if _, err := c.Call(&Request{Op: OpSever, To: 99}, 5*time.Second); err == nil {
		t.Fatal("out-of-range sever accepted")
	}
}

// TestDaemonLedgerRestartResumes is the in-process half of the crash-
// recovery contract: a WAL-backed party is torn down abruptly mid-ledger
// (no drain, no WAL close), restarted from the same config, and the cluster
// still drains to one digest with every transaction delivered exactly once.
func TestDaemonLedgerRestartResumes(t *testing.T) {
	const n, txCount, txBytes = 4, 16, 32
	tc := startClusterWAL(t, n, 1, 21, t.TempDir())
	for i, c := range tc.clients {
		req := &Request{
			Op: OpLaunch, Kind: "ledger", Tag: "l", Genesis: []byte("g"),
			TxCount: txCount, TxBytes: txBytes,
		}
		if _, err := c.Call(req, 10*time.Second); err != nil {
			t.Fatalf("launch party %d: %v", i, err)
		}
	}
	// Let the ledger commit some slots, then crash party 3 mid-flight.
	time.Sleep(150 * time.Millisecond)
	tc.croak(3)
	tc.startDaemon(t, 3)

	for i, c := range tc.clients {
		if _, err := c.Call(&Request{Op: OpDrain, Tag: "l"}, 10*time.Second); err != nil {
			t.Fatalf("drain party %d: %v", i, err)
		}
	}
	decs := awaitAll(t, tc.clients, "l")
	for i, d := range decs {
		if d.Value != decs[0].Value || d.FinalSlot != decs[0].FinalSlot {
			t.Fatalf("party %d log (slot %d, %s) != party 0 log (slot %d, %s)",
				i, d.FinalSlot, d.Value, decs[0].FinalSlot, decs[0].Value)
		}
	}
	if err := CheckLedger(decs, txCount, txBytes); err != nil {
		t.Fatal(err)
	}
	resp, err := tc.clients[3].Call(&Request{Op: OpStats}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	st := resp.Stats
	if st.Restarts != 1 {
		t.Fatalf("restarted party reports Restarts=%d, want 1", st.Restarts)
	}
	if st.ReplayedRecords == 0 || st.ReplayedFrames == 0 {
		t.Fatalf("restarted party replayed nothing: %+v", st)
	}
	if st.SelfMismatches != 0 {
		t.Fatalf("replay diverged from journal: %d self mismatches", st.SelfMismatches)
	}
	if resp, err = tc.clients[0].Call(&Request{Op: OpStats}, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if resp.Stats.Restarts != 0 {
		t.Fatalf("party 0 never crashed but reports Restarts=%d", resp.Stats.Restarts)
	}
}

// TestDaemonGracefulRestartRejoins pins the clean-exit half: a WAL-backed
// party that shuts down gracefully (drain + final compaction + WAL close)
// restarts from its journal and participates in a fresh workload with the
// same cluster.
func TestDaemonGracefulRestartRejoins(t *testing.T) {
	const n, txCount, txBytes = 4, 8, 32
	tc := startClusterWAL(t, n, 1, 22, t.TempDir())
	launchDrained(t, tc.clients, &Request{
		Op: OpLaunch, Kind: "ledger", Tag: "l1", Genesis: []byte("g"), TxCount: txCount, TxBytes: txBytes,
	})
	first := awaitAll(t, tc.clients, "l1")

	tc.daemons[2].Shutdown()
	tc.clients[2].Close()
	tc.startDaemon(t, 2)

	// The restarted party must still hold l1's decision (snapshot or
	// replay — either way it is durable) and join a second ledger.
	resp, err := tc.clients[2].Call(&Request{Op: OpAwait, Tag: "l1", TimeoutMS: 10_000}, 0)
	if err != nil {
		t.Fatalf("await l1 after graceful restart: %v", err)
	}
	if resp.Decision.Value != first[2].Value {
		t.Fatalf("l1 digest changed across restart: %s != %s", resp.Decision.Value, first[2].Value)
	}
	launchDrained(t, tc.clients, &Request{
		Op: OpLaunch, Kind: "ledger", Tag: "l2", Genesis: []byte("g2"), TxCount: txCount, TxBytes: txBytes,
	})
	decs := awaitAll(t, tc.clients, "l2")
	for i, d := range decs {
		if d.Value != decs[0].Value {
			t.Fatalf("party %d l2 digest %s != party 0 %s", i, d.Value, decs[0].Value)
		}
	}
	if err := CheckLedger(decs, txCount, txBytes); err != nil {
		t.Fatal(err)
	}
	resp, err = tc.clients[2].Call(&Request{Op: OpStats}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Stats.Restarts != 1 {
		t.Fatalf("restarted party reports Restarts=%d, want 1", resp.Stats.Restarts)
	}
}

// TestDaemonShutdownDrainReplays pins the graceful stop's drain as a
// journaled op: a WAL party shut down while its ledger is open (the other
// parties have not drained, so its final compaction cannot snapshot) asked
// its ledger to stop, and that stop put self-sends in its journal. The
// restarted party must replay the stop at the same position — replay then
// reproduces every journaled self-send — and the cluster still drains to
// one log holding every transaction exactly once.
func TestDaemonShutdownDrainReplays(t *testing.T) {
	const n, txCount, txBytes = 4, 16, 32
	tc := startClusterWAL(t, n, 1, 23, t.TempDir())
	launch := &Request{
		Op: OpLaunch, Kind: "ledger", Tag: "l", Genesis: []byte("g"),
		TxCount: txCount, TxBytes: txBytes, BatchBytes: 64,
	}
	for i, c := range tc.clients {
		if _, err := c.Call(launch, 10*time.Second); err != nil {
			t.Fatalf("launch party %d: %v", i, err)
		}
	}
	waitIdle(t, tc.clients[3])
	// The ledger cannot settle while the peers hold it open, so a short
	// drain timeout only bounds how long the stop waits for it.
	tc.cfgs[3].DrainTimeoutMS = 100
	tc.daemons[3].Shutdown()
	tc.clients[3].Close()
	tc.startDaemon(t, 3)

	for i, c := range tc.clients {
		if _, err := c.Call(&Request{Op: OpDrain, Tag: "l"}, 10*time.Second); err != nil {
			t.Fatalf("drain party %d: %v", i, err)
		}
	}
	decs := awaitAll(t, tc.clients, "l")
	for i, d := range decs {
		if d.Value != decs[0].Value {
			t.Fatalf("party %d log %s != party 0 log %s", i, d.Value, decs[0].Value)
		}
	}
	if err := CheckLedger(decs, txCount, txBytes); err != nil {
		t.Fatal(err)
	}
	resp, err := tc.clients[3].Call(&Request{Op: OpStats}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Two ops replay: the launch and the shutdown's drain.
	if st := resp.Stats; st.Restarts != 1 || st.ReplayedOps != 2 || st.SelfMismatches != 0 {
		t.Fatalf("restarted party: Restarts=%d ReplayedOps=%d SelfMismatches=%d, want 1, 2 and 0",
			st.Restarts, st.ReplayedOps, st.SelfMismatches)
	}
}
