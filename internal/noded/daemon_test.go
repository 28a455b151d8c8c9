package noded

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/pki"
)

// reservePorts binds k ephemeral loopback ports and releases them, so test
// clusters can exchange concrete addresses before any daemon starts (the
// same trick the nodenet launcher uses).
func reservePorts(t *testing.T, k int) []string {
	t.Helper()
	addrs := make([]string, k)
	lns := make([]net.Listener, k)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

// testCluster is an in-process daemon cluster; restart tests need the
// configs and daemon handles, not just control clients.
type testCluster struct {
	cfgs    []*Config
	daemons []*Daemon
	clients []*Client
}

// startDaemon boots one party from its config and returns a pinged client.
func (tc *testCluster) startDaemon(t *testing.T, i int) {
	t.Helper()
	d, err := New(tc.cfgs[i])
	if err != nil {
		t.Fatalf("new party %d: %v", i, err)
	}
	if err := d.Start(); err != nil {
		t.Fatalf("start party %d: %v", i, err)
	}
	go d.Serve()
	tc.daemons[i] = d
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
// process boundary is missing (cmd/nodenet tests cover that). A non-empty
// walRoot gives each party a journal dir under it.
func startClusterWAL(t *testing.T, n, f int, seed int64, walRoot string) *testCluster {
	t.Helper()
	rings, _, err := pki.SetupSeeded(n, seed)
	if err != nil {
		t.Fatal(err)
	}
	ports := reservePorts(t, 2*n)
	mesh, control := ports[:n], ports[n:]
	tc := &testCluster{
		cfgs:    make([]*Config, n),
		daemons: make([]*Daemon, n),
		clients: make([]*Client, n),
	}
	for i := 0; i < n; i++ {
		tc.cfgs[i] = &Config{
			N: n, F: f, Seed: seed,
			Listen: mesh[i], Control: control[i], Peers: mesh,
			Keys:           rings[i].Config(),
			AwaitTimeoutMS: int((60 * time.Second).Milliseconds()),
			DrainTimeoutMS: int((30 * time.Second).Milliseconds()),
		}
		if walRoot != "" {
			tc.cfgs[i].WALDir = fmt.Sprintf("%s/party%d", walRoot, i)
		}
		tc.startDaemon(t, i)
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
		if d.Txs != 4*txCount {
			t.Fatalf("party %d delivered %d txs, want %d", i, d.Txs, 4*txCount)
		}
		if d.Value != decs[0].Value || d.FinalSlot != decs[0].FinalSlot {
			t.Fatalf("party %d log (slot %d, %s) != party 0 log (slot %d, %s)",
				i, d.FinalSlot, d.Value, decs[0].FinalSlot, decs[0].Value)
		}
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
		if d.Txs != n*txCount {
			t.Fatalf("party %d delivered %d txs, want %d exactly once", i, d.Txs, n*txCount)
		}
		if d.Value != decs[0].Value || d.FinalSlot != decs[0].FinalSlot {
			t.Fatalf("party %d log (slot %d, %s) != party 0 log (slot %d, %s)",
				i, d.FinalSlot, d.Value, decs[0].FinalSlot, decs[0].Value)
		}
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
	const n, txCount = 4, 8
	tc := startClusterWAL(t, n, 1, 22, t.TempDir())
	for i, c := range tc.clients {
		req := &Request{
			Op: OpLaunch, Kind: "ledger", Tag: "l1", Genesis: []byte("g"),
			TxCount: txCount, TxBytes: 32, AutoStop: true,
		}
		if _, err := c.Call(req, 10*time.Second); err != nil {
			t.Fatalf("launch party %d: %v", i, err)
		}
	}
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
	for i, c := range tc.clients {
		req := &Request{
			Op: OpLaunch, Kind: "ledger", Tag: "l2", Genesis: []byte("g2"),
			TxCount: txCount, TxBytes: 32, AutoStop: true,
		}
		if _, err := c.Call(req, 10*time.Second); err != nil {
			t.Fatalf("launch l2 party %d: %v", i, err)
		}
	}
	decs := awaitAll(t, tc.clients, "l2")
	for i, d := range decs {
		if d.Txs != n*txCount {
			t.Fatalf("party %d delivered %d txs on l2, want %d", i, d.Txs, n*txCount)
		}
		if d.Value != decs[0].Value {
			t.Fatalf("party %d l2 digest %s != party 0 %s", i, d.Value, decs[0].Value)
		}
	}
	resp, err = tc.clients[2].Call(&Request{Op: OpStats}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Stats.Restarts != 1 {
		t.Fatalf("restarted party reports Restarts=%d, want 1", resp.Stats.Restarts)
	}
}
