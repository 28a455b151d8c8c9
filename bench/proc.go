package main

// The process driver: real noded processes launched by nodenet and driven
// over the control RPC. One operation is a preloaded ledger round — launch
// on every party, drain, await every decision — because that is the finest
// grain the RPC exposes.

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"repro/internal/noded"
	"repro/internal/nodenet"
)

// procShape is the preload of one round.
type procShape struct {
	txCount    int // per party
	txBytes    int
	batchBytes int
}

func (s procShape) txs() int { return clusterN * s.txCount }

const (
	rpcTimeout   = 30 * time.Second
	roundTimeout = 60 * time.Second
	// The kill round's fault schedule: the victim dies this long after the
	// launch was acknowledged and stays dead for this long.
	killAfter = 200 * time.Millisecond
	deadFor   = 300 * time.Millisecond
)

// procEnv is where process clusters live on disk.
type procEnv struct {
	nodedBin string
	workDir  string
}

// launchCluster spawns a cluster in a fresh directory under workDir.
func (e *procEnv) launchCluster(seed int64, useWAL bool) (*nodenet.Cluster, error) {
	dir, err := os.MkdirTemp(e.workDir, "cluster-*")
	if err != nil {
		return nil, err
	}
	cl, err := nodenet.Launch(nodenet.Options{
		N: clusterN, F: clusterF, Seed: seed,
		BinPath: e.nodedBin, Dir: dir, WAL: useWAL,
		AwaitTimeoutMS: int(roundTimeout / time.Millisecond),
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return cl, nil
}

// closeCluster kills whatever still runs, reaps it, and removes its files.
func closeCluster(cl *nodenet.Cluster) {
	cl.Close()
	os.RemoveAll(cl.Dir())
}

// roundResult is one ledger round as seen from the launcher.
type roundResult struct {
	started time.Time       // launch sent
	elapsed time.Duration   // … → last await returned
	awaited []time.Duration // … → each party's await returned
	decs    []*noded.Decision
}

// runRound launches one preloaded ledger on every party, runs fault (the
// window in which a party may be killed) if set, drains and awaits.
func runRound(cl *nodenet.Cluster, tag string, shape procShape, fault func() error) (*roundResult, error) {
	t0 := time.Now()
	if _, err := cl.CallAll(func(int) *noded.Request {
		return &noded.Request{
			Op: noded.OpLaunch, Kind: "ledger", Tag: tag,
			TxCount: shape.txCount, TxBytes: shape.txBytes,
			BatchBytes: shape.batchBytes, MaxInFlight: pipelineDepth,
		}
	}, rpcTimeout); err != nil {
		return nil, fmt.Errorf("%s: launch: %w", tag, err)
	}
	res := &roundResult{started: t0, awaited: make([]time.Duration, clusterN), decs: make([]*noded.Decision, clusterN)}
	if fault != nil {
		if err := fault(); err != nil {
			return nil, fmt.Errorf("%s: %w", tag, err)
		}
	}
	if _, err := cl.CallAll(func(int) *noded.Request {
		return &noded.Request{Op: noded.OpDrain, Tag: tag}
	}, rpcTimeout); err != nil {
		return nil, fmt.Errorf("%s: drain: %w", tag, err)
	}
	errs := make([]error, clusterN)
	var wg sync.WaitGroup
	for i := 0; i < clusterN; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := cl.Client(i).Call(&noded.Request{
				Op: noded.OpAwait, Tag: tag, TimeoutMS: roundTimeout.Milliseconds(),
			}, roundTimeout+rpcTimeout)
			res.awaited[i] = time.Since(t0)
			if err != nil {
				errs[i] = err
				return
			}
			res.decs[i] = resp.Decision
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(t0)
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("%s: await party %d: %w", tag, i, err)
		}
	}
	return res, nil
}

// agreed is the within-run gate: every process reports the same ledger.
func agreed(decs []*noded.Decision) error {
	for i, d := range decs {
		if d == nil {
			return fmt.Errorf("party %d returned no decision", i)
		}
		a := decs[0]
		if d.Value != a.Value || d.TxSet != a.TxSet || d.Txs != a.Txs || d.FinalSlot != a.FinalSlot || d.Bytes != a.Bytes {
			return fmt.Errorf("party %d disagrees with party 0: %+v vs %+v", i, d, a)
		}
	}
	return nil
}

// exactlyOnce is the steady-round gate: agreement, and the delivered
// multiset is exactly every party's preload.
func exactlyOnce(decs []*noded.Decision, shape procShape) error {
	if err := agreed(decs); err != nil {
		return err
	}
	if want := noded.ExpectedTxSet(clusterN, shape.txCount, shape.txBytes); decs[0].TxSet != want {
		return fmt.Errorf("delivered tx set %s, want %s", decs[0].TxSet, want)
	}
	if decs[0].Txs != shape.txs() {
		return fmt.Errorf("delivered %d txs, want exactly-once %d", decs[0].Txs, shape.txs())
	}
	return nil
}

// procSetUp launches a cluster and commits one transaction per party on it:
// process spawn, READY, mesh handshakes, first-slot lazy fills.
func (e *procEnv) procSetUp(seed int64, useWAL bool, shape procShape) (*nodenet.Cluster, float64, error) {
	t0 := time.Now()
	cl, err := e.launchCluster(seed, useWAL)
	if err != nil {
		return nil, 0, err
	}
	first := procShape{txCount: 1, txBytes: shape.txBytes, batchBytes: shape.batchBytes}
	r, err := runRound(cl, "bench/first", first, nil)
	if err == nil {
		err = exactlyOnce(r.decs, first)
	}
	if err != nil {
		err = fmt.Errorf("%w\n%s", err, cl.Logs())
		closeCluster(cl)
		return nil, 0, err
	}
	return cl, time.Since(t0).Seconds(), nil
}

func sumStats(all []*noded.Stats) noded.Stats {
	var t noded.Stats
	for _, s := range all {
		t.Msgs += s.Msgs
		t.Bytes += s.Bytes
		t.Frames += s.Frames
		t.Syscalls += s.Syscalls
		t.Resends += s.Resends
		t.WALAppends += s.WALAppends
		t.WALSyncs += s.WALSyncs
		t.SelfMismatches += s.SelfMismatches
	}
	return t
}

// procResult is everything one process-driver run measured.
type procResult struct {
	setups    []float64 // seconds at the reference speed
	setupsRaw []float64 // … as measured
	rounds    []float64 // seconds per measured round at the reference speed
	roundsRaw []float64 // … as measured
	roundTxs  int
	attempted int
	failed    int
	problems  []string

	// stats RPC deltas over the measured rounds, summed over parties
	steady noded.Stats

	// traced runs only
	killed         bool
	rejoinS        float64
	restartS       float64
	victim         noded.Stats // the victim's counters after the kill round
	killResends    int64       // cluster-wide resends during the kill round
	walOffRounds   []float64
	selfMismatches int64
}

// runProc executes the proc-wal workload: set up, warm-up rounds, measured
// rounds until the window has passed, and — traced — one kill round plus a
// WAL-off comparison. As in runLedger, half of the set-ups run after the
// measured cluster.
func (e *procEnv) runProc(shape procShape, seed int64, p plan) (*procResult, error) {
	res := &procResult{roundTxs: shape.txs()}
	var cl *nodenet.Cluster
	setUpOnce := func() error {
		if cl != nil {
			closeCluster(cl)
		}
		var s float64
		var err error
		from := time.Now()
		if cl, s, err = e.procSetUp(seed, true, shape); err != nil {
			return fmt.Errorf("set-up %d: %w", len(res.setups), err)
		}
		slow, _ := p.speed.slowdown(from, time.Now())
		res.setupsRaw = append(res.setupsRaw, s)
		res.setups = append(res.setups, s/slow)
		return nil
	}
	for r := 0; r < (p.setups+1)/2; r++ {
		if err := setUpOnce(); err != nil {
			return nil, err
		}
	}
	defer func() { closeCluster(cl) }()
	laterSetUps := func() error {
		for len(res.setups) < p.setups {
			if err := setUpOnce(); err != nil {
				return err
			}
		}
		return nil
	}

	fail := func(txs int, format string, args ...any) {
		res.failed += txs
		if len(res.problems) < maxProblems {
			res.problems = append(res.problems, fmt.Sprintf(format, args...))
		}
	}
	// steadyRound returns the round's duration as measured and at the
	// reference speed.
	steadyRound := func(c *nodenet.Cluster, tag string) (raw, corrected float64, ok bool) {
		res.attempted += shape.txs()
		from := time.Now()
		r, err := runRound(c, tag, shape, nil)
		if err == nil {
			err = exactlyOnce(r.decs, shape)
		}
		if err != nil {
			fail(shape.txs(), "%s: %v", tag, err)
			return 0, 0, false
		}
		slow, _ := p.speed.slowdown(from, time.Now())
		raw = r.elapsed.Seconds()
		return raw, raw / slow, true
	}

	for w := 0; w < p.warmRounds; w++ {
		if _, _, ok := steadyRound(cl, fmt.Sprintf("bench/warm%d", w)); !ok {
			return res, nil // a cluster that failed a round is not measured further
		}
	}
	before, err := cl.StatsAll()
	if err != nil {
		return nil, fmt.Errorf("stats: %w", err)
	}
	start := time.Now()
	for k := 0; time.Since(start) < p.window; k++ {
		raw, corrected, ok := steadyRound(cl, fmt.Sprintf("bench/r%d", k))
		if !ok {
			return res, nil
		}
		res.roundsRaw = append(res.roundsRaw, raw)
		res.rounds = append(res.rounds, corrected)
	}
	after, err := cl.StatsAll()
	if err != nil {
		return nil, fmt.Errorf("stats: %w", err)
	}
	b, a := sumStats(before), sumStats(after)
	res.steady = noded.Stats{
		Msgs: a.Msgs - b.Msgs, Bytes: a.Bytes - b.Bytes,
		Frames: a.Frames - b.Frames, Syscalls: a.Syscalls - b.Syscalls,
		Resends:    a.Resends - b.Resends,
		WALAppends: a.WALAppends - b.WALAppends, WALSyncs: a.WALSyncs - b.WALSyncs,
	}
	res.selfMismatches = a.SelfMismatches
	if !p.traced {
		return res, laterSetUps()
	}

	// The kill round. BKR may legally exclude the victim's batch, so only
	// agreement and a faithful replay are asserted.
	victim := rand.New(rand.NewSource(seed)).Intn(clusterN)
	res.attempted += shape.txs()
	var restartCalled time.Time
	kr, err := runRound(cl, "bench/kill", shape, func() error {
		time.Sleep(killAfter)
		if err := cl.Kill(victim); err != nil {
			return err
		}
		time.Sleep(deadFor)
		restartCalled = time.Now()
		if err := cl.Restart(victim); err != nil {
			return fmt.Errorf("restart party %d: %w", victim, err)
		}
		res.restartS = time.Since(restartCalled).Seconds()
		return nil
	})
	if err == nil {
		err = agreed(kr.decs)
	}
	if err != nil {
		fail(shape.txs(), "kill round: %v", err)
		return res, nil
	}
	res.killed = true
	res.rejoinS = kr.started.Add(kr.awaited[victim]).Sub(restartCalled).Seconds()
	final, err := cl.StatsAll()
	if err != nil {
		return nil, fmt.Errorf("stats: %w", err)
	}
	res.victim = *final[victim]
	fin := sumStats(final)
	res.selfMismatches = fin.SelfMismatches
	// The restarted victim's counters start from zero, so the delta is a
	// lower bound on the survivors' resends.
	for i, s := range final {
		if i != victim {
			res.killResends += s.Resends - after[i].Resends
		}
	}
	if res.selfMismatches != 0 {
		fail(shape.txs(), "replay diverged: %d self-send mismatches", res.selfMismatches)
	}
	if res.victim.Restarts == 0 {
		fail(shape.txs(), "victim %d reports no WAL recovery", victim)
	}
	closeCluster(cl)

	// The price of the journal: the same rounds on a cluster without one.
	off, _, err := e.procSetUp(seed, false, shape)
	if err != nil {
		return nil, fmt.Errorf("wal-off set-up: %w", err)
	}
	defer closeCluster(off)
	for k := 0; k < p.warmRounds+p.walOff; k++ {
		_, corrected, ok := steadyRound(off, fmt.Sprintf("bench/off%d", k))
		if !ok {
			return res, nil
		}
		if k >= p.warmRounds {
			res.walOffRounds = append(res.walOffRounds, corrected)
		}
	}
	closeCluster(off)
	return res, laterSetUps()
}
