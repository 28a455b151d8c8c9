package nodenet

// Multi-process integration tests: real noded binaries, real OS processes,
// real TCP between them. Skipped under -short (they build the binary and
// spawn a cluster per test).

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core/abc"
	"repro/internal/kinds"
	"repro/internal/noded"
)

var (
	buildOnce sync.Once
	builtBin  string
	buildErr  error
)

// sharedBinary builds noded once for the whole test binary.
func sharedBinary(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "noded-bin-*")
		if err != nil {
			buildErr = err
			return
		}
		builtBin, buildErr = BuildNoded(dir)
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return builtBin
}

func launchCluster(t *testing.T, seed int64) *Cluster {
	t.Helper()
	if testing.Short() {
		t.Skip("multi-process cluster test; skipped under -short")
	}
	cl, err := Launch(Options{N: 4, F: -1, Seed: seed, BinPath: sharedBinary(t)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

// TestProcessClusterMatchesSim runs workloads across 4 noded OS processes
// and checks each decision for cross-process agreement; the
// validity-pinned ones must also equal the in-process simulator run from
// the same seed — the headline acceptance check for the deployment
// runtime. The election's leader depends on which coin shares aggregate
// first, so it is checked for agreement only.
func TestProcessClusterMatchesSim(t *testing.T) {
	cl := launchCluster(t, 21)
	for _, name := range []string{"election", "vba-pinned", "aba-unanimous"} {
		w, err := WorkloadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := w.Run(cl)
		if err != nil {
			t.Fatalf("%s: %v\n%s", name, err, cl.Logs())
		}
		pinned := name != "election"
		if !res.Agreed || pinned && (res.SimMatch == nil || !*res.SimMatch) {
			t.Fatalf("%s: agreed=%v simMatch=%v", name, res.Agreed, res.SimMatch)
		}
	}
	if err := cl.Stop(60 * time.Second); err != nil {
		t.Fatalf("graceful stop: %v\n%s", err, cl.Logs())
	}
}

// TestProcessClusterSurvivesConnectionKill forces a mesh connection closed
// while a multi-slot ledger is committing across 4 processes. The
// seq/ack/resend layer must redial and resync so every process still
// reports an identical ordered log with every transaction delivered
// exactly once.
func TestProcessClusterSurvivesConnectionKill(t *testing.T) {
	cl := launchCluster(t, 22)
	// Kill a live inter-node connection mid-run: outbound of party 1 to
	// party 2.
	w := Workload{Name: "killtest", Kind: "ledger", Genesis: "kill", TxCount: 48, TxBytes: 96,
		Agreement: true, Mid: func() error { return cl.Sever(1, 2) }}
	// Run's check gates agreement, conservation and full delivery.
	if _, err := w.Run(cl); err != nil {
		t.Fatalf("ledger after sever: %v\n%s", err, cl.Logs())
	}
	// The severed link must have actually redialed.
	deadline := time.Now().Add(10 * time.Second)
	for {
		stats, err := cl.StatsAll()
		if err != nil {
			t.Fatal(err)
		}
		var redials int64
		for _, s := range stats {
			redials += s.Redials
		}
		if redials > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no redial recorded after severing a live connection")
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err := cl.Stop(60 * time.Second); err != nil {
		t.Fatalf("graceful stop: %v\n%s", err, cl.Logs())
	}
}

// TestProcessClusterSurvivesByzantineParty runs the registered byz
// workloads — a real OS process whose outbound protocol traffic lies
// (internal/adversary wired through noded's launch path) — over live TCP.
// The honest processes must reach identical decisions AND record nonzero
// detection counters: an undetected liar fails the workload itself.
func TestProcessClusterSurvivesByzantineParty(t *testing.T) {
	cl := launchCluster(t, 24)
	ran := 0
	for _, w := range Workloads {
		if w.Byz == "" {
			continue
		}
		ran++
		res, err := w.Run(cl)
		if err != nil {
			t.Fatalf("%s: %v\n%s", w.Name, err, cl.Logs())
		}
		if !res.Agreed {
			t.Fatalf("%s: processes disagree under a lying party: %+v", w.Name, res.Decisions)
		}
	}
	if ran < 2 {
		t.Fatalf("only %d byz workloads registered; want at least 2 behaviors end-to-end over TCP", ran)
	}
	if err := cl.Stop(60 * time.Second); err != nil {
		t.Fatalf("graceful stop: %v\n%s", err, cl.Logs())
	}
}

// TestProcessClusterSIGTERMDrainsAndExitsZero launches an open streaming
// ledger on every process and tears the cluster down with SIGTERM alone:
// each daemon must drain the ledger (RequestStop, all-stop slot commits
// while peers are still up), flush, and exit 0.
func TestProcessClusterSIGTERMDrainsAndExitsZero(t *testing.T) {
	cl := launchCluster(t, 23)
	const tag = "wl/sigterm"
	if _, err := cl.CallAll(func(int) *noded.Request {
		return &noded.Request{
			Op: noded.OpLaunch, Kind: "ledger", Tag: tag, Genesis: []byte("term"),
			TxCount: 8, TxBytes: 32,
		}
	}, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	// No drain op: SIGTERM itself must close the log gracefully.
	if err := cl.Stop(60 * time.Second); err != nil {
		t.Fatalf("SIGTERM teardown: %v\n%s", err, cl.Logs())
	}
}

// TestProcessClusterConfigsOnDisk sanity-checks the deployment artifacts:
// configs are valid daemon inputs, private (0600), and carry the full
// peer map.
func TestProcessClusterConfigsOnDisk(t *testing.T) {
	if testing.Short() {
		t.Skip("writes a real config set; skipped under -short")
	}
	dir := t.TempDir()
	cfgs, err := WriteConfigs(dir, Options{N: 4, F: -1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := range cfgs {
		path := filepath.Join(dir, "party"+string(rune('0'+i))+".json")
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if st.Mode().Perm() != 0o600 {
			t.Fatalf("config %d has mode %v, want 0600 (it holds private keys)", i, st.Mode().Perm())
		}
		c, err := noded.LoadConfig(path)
		if err != nil {
			t.Fatal(err)
		}
		if c.Keys.Self != i || len(c.Peers) != 4 {
			t.Fatalf("config %d decoded as self=%d peers=%d", i, c.Keys.Self, len(c.Peers))
		}
	}
}

// TestProcessClusterSurvivesKillRestart SIGKILLs one process while a
// multi-slot ledger is committing — no drain, no flush, the WAL is all
// that survives — then restarts it from the same on-disk config. The
// restarted process must replay its journal, rejoin over TCP, and land on
// the same ordered log as everyone else, with every transaction delivered
// exactly once (the headline crash-recovery acceptance check).
func TestProcessClusterSurvivesKillRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process cluster test; skipped under -short")
	}
	const n, txCount, txBytes = 4, 24, 64
	cl, err := Launch(Options{N: n, F: -1, Seed: 25, BinPath: sharedBinary(t), WAL: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	const victim = 2
	w := Workload{Name: "krtest", Kind: "ledger", Genesis: "kr", TxCount: txCount, TxBytes: txBytes,
		Agreement: true, Mid: func() error {
			time.Sleep(100 * time.Millisecond)
			if err := cl.Kill(victim); err != nil {
				return err
			}
			return cl.Restart(victim)
		}}
	// Run's check gates agreement, conservation and full delivery.
	if _, err := w.Run(cl); err != nil {
		t.Fatalf("ledger after kill/restart: %v\n%s", err, cl.Logs())
	}
	stats, err := cl.StatsAll()
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range stats {
		wantRestarts := int64(0)
		if i == victim {
			wantRestarts = 1
		}
		if s.Restarts != wantRestarts {
			t.Fatalf("party %d reports %d restarts, want %d", i, s.Restarts, wantRestarts)
		}
		if s.SelfMismatches != 0 {
			t.Fatalf("party %d replay diverged: %d self-send mismatches", i, s.SelfMismatches)
		}
	}
	if stats[victim].ReplayedRecords == 0 {
		t.Fatalf("restarted party replayed no WAL records: %+v", stats[victim])
	}
	if err := cl.Stop(60 * time.Second); err != nil {
		t.Fatalf("graceful stop: %v\n%s", err, cl.Logs())
	}
}

// TestChaosRunSmoke runs the full seeded chaos harness at n=4 — f
// kill/restart cycles against WAL-backed processes across the ledger
// rounds — and checks every round delivered the ledger workload's
// transactions exactly once.
func TestChaosRunSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process chaos test; skipped under -short")
	}
	run, err := RunChaos(Options{N: 4, F: -1, Seed: 7, BinPath: sharedBinary(t)})
	if err != nil {
		t.Fatal(err)
	}
	// Each round is a ledger Workload.Run, whose check gates conservation
	// and full delivery.
	kills := 0
	for _, r := range run.Rounds {
		kills += len(r.Kills)
	}
	if len(run.Rounds) != 2 || kills != 1 {
		t.Fatalf("unexpected chaos shape: %d rounds, %d kills", len(run.Rounds), kills)
	}
	if run.Restarts == 0 {
		t.Fatal("chaos run recorded no WAL recoveries")
	}
}

// TestSimDecisionRunsTheLedger: the simulator reference reaches the ledger
// through the kinds table, as a noded launch does, with the request's tx
// size, and the ledger it stops right after its start ends with a
// committed log.
func TestSimDecisionRunsTheLedger(t *testing.T) {
	w, err := WorkloadByName("ledger")
	if err != nil {
		t.Fatal(err)
	}
	d, err := w.SimDecision(4, 1, 23)
	if err != nil {
		t.Fatal(err)
	}
	if d.Kind != "ledger" || d.Tag != "wl/ledger" || d.Txs == 0 || d.Bytes != int64(d.Txs*w.TxBytes) {
		t.Fatalf("sim ledger decided %+v", d)
	}
}

// TestWorkloadCheck pins the decision-only invariants Run enforces:
// agreement where declared, and a ledger's conservation and full delivery,
// each reported by name.
func TestWorkloadCheck(t *testing.T) {
	const n = 4
	byName := func(name string) Workload {
		w, err := WorkloadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	ledger := byName("ledger")
	wantTxs := n * ledger.TxCount
	var none, straggler abc.SetDigest // party 3's preload, handed back
	for k := 0; k < ledger.TxCount; k++ {
		straggler.Add(kinds.LedgerTx(n-1, k, ledger.TxBytes))
	}
	bits := func(bs ...int) []*noded.Decision {
		decs := make([]*noded.Decision, len(bs))
		for i, b := range bs {
			decs[i] = &noded.Decision{Kind: "aba", Bit: b}
		}
		return decs
	}
	// logs is n agreeing ledger decisions whose last party holds left back.
	logs := func(txs int, set string, left int, leftSet abc.SetDigest) []*noded.Decision {
		decs := make([]*noded.Decision, n)
		for i := range decs {
			decs[i] = &noded.Decision{Kind: "ledger", Value: "log", FinalSlot: 2, Txs: txs, TxSet: set,
				LeftoverSet: none.String()}
		}
		decs[n-1].Leftover, decs[n-1].LeftoverSet = left, leftSet.String()
		return decs
	}
	full := noded.ExpectedTxSet(n, ledger.TxCount, ledger.TxBytes)
	rest := noded.ExpectedTxSet(n-1, ledger.TxCount, ledger.TxBytes) // parties 0..n-2
	for _, tc := range []struct {
		name string
		w    Workload
		decs []*noded.Decision
		want string // "" = ok, else a substring of the error
	}{
		{"agreeing", byName("aba-unanimous"), bits(1, 1, 1, 1), ""},
		{"disagreeing", byName("aba-unanimous"), bits(1, 1, 0, 1), "disagree"},
		{"disagreeing weak coin", byName("coin"), bits(1, 1, 0, 1), ""},
		{"ledger exactly once", ledger, logs(wantTxs, full, 0, none), ""},
		{"ledger one tx short", ledger, logs(wantTxs-1, full, 0, none), "conservation"},
		{"ledger wrong tx set", ledger, logs(wantTxs, noded.ExpectedTxSet(n, ledger.TxCount, ledger.TxBytes+1), 0, none), "conservation"},
		{"ledger straggler handed back", ledger, logs(wantTxs-ledger.TxCount, rest, ledger.TxCount, straggler), "full delivery"},
		{"ledger straggler lost", ledger, logs(wantTxs-ledger.TxCount, rest, 0, none), "conservation"},
		{"ledger straggler also committed", ledger, logs(wantTxs, full, ledger.TxCount, straggler), "conservation"},
	} {
		err := tc.w.check(tc.decs)
		if tc.want == "" && err != nil || tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("%s: check = %v, want %q", tc.name, err, tc.want)
		}
	}
}
