package main

// The in-process driver: one harness.LiveCluster over the authenticated TCP
// mesh, one abc.Engine + abc.Mempool per party wired the way exp.LaunchABC
// and repro.NewLedger wire them, one submitter goroutine, one collector
// goroutine. It is the only place submit→commit per transaction can be
// observed today: noded's control RPC has no submit op and no commit stream.

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core/abc"
	"repro/internal/core/coin"
	"repro/internal/harness"
	"repro/internal/livenet"
)

const (
	clusterN = 4
	clusterF = 1
	// pipelineDepth is abc.DefaultMaxInFlight, pinned so a change of the
	// default shows up as a diff here and not as a silent workload change.
	pipelineDepth = 2
)

// ledgerShape is what distinguishes the in-process workloads.
type ledgerShape struct {
	txBytes      int
	batchBytes   int
	mempoolBytes int           // per party; 0 = abc.DefaultMempoolBytes
	rate         float64       // open-loop offered load, tx/s; 0 = closed loop
	oneWay       time.Duration // injected one-way link delay; 0 = none
	warmup       time.Duration // load applied before a window opens
	// episode, when set, cuts the window into parts of about this length,
	// each measured on a cluster of its own, so that what the ledger
	// retains per slot is dropped between them; 0 = one cluster throughout.
	episode time.Duration
}

type delivery struct {
	party, slot int
	at          time.Duration
	entries     []abc.Entry
}

type launch struct {
	party, slot int
	at          time.Duration
}

// liveLedger is a running in-process ledger with its collector.
type liveLedger struct {
	hc      *harness.Cluster
	pools   []*abc.Mempool
	engines []*abc.Engine
	epoch   time.Time

	// Sized so a dispatcher never waits for the collector: four parties
	// deliver and launch at most a few tens of slots per second each.
	deliveries chan delivery
	launches   chan launch
	closed     chan struct{}
	closeOnce  sync.Once
	collected  sync.WaitGroup

	tracing atomic.Bool // traced clusters only: whether launches are being recorded

	mu       sync.Mutex // guards the fields below while the collector runs
	check    *ledgerCheck
	launchAt map[[2]int]time.Duration // (party, slot) → local launch time
	progress chan struct{}            // pulsed on every slot delivery
}

// newLiveLedger builds the cluster and starts one engine per party. With
// traced set, every local slot launch is timestamped through
// EngineConfig.OnLaunch; otherwise the engines carry no instrumentation
// beyond the deliver callback.
func newLiveLedger(shape ledgerShape, seed int64, traced bool) (*liveLedger, error) {
	opts := harness.LiveOptions{Transport: livenet.TCP}
	if shape.oneWay > 0 {
		opts.WAN = livenet.UniformWAN("uniform", clusterN, livenet.LinkProfile{Delay: shape.oneWay})
	}
	hc, err := harness.NewLiveCluster(clusterN, clusterF, seed, opts)
	if err != nil {
		return nil, err
	}
	l := &liveLedger{
		hc:         hc,
		pools:      make([]*abc.Mempool, clusterN),
		engines:    make([]*abc.Engine, clusterN),
		epoch:      time.Now(),
		deliveries: make(chan delivery, 1024),
		launches:   make(chan launch, 1024),
		closed:     make(chan struct{}),
		check:      newLedgerCheck(clusterN),
		launchAt:   make(map[[2]int]time.Duration),
		progress:   make(chan struct{}, 1),
	}
	for i := range l.pools {
		l.pools[i] = abc.NewMempool(shape.mempoolBytes)
	}
	for i := 0; i < clusterN; i++ {
		cfg := abc.EngineConfig{
			Coin:        coin.Config{GenesisNonce: []byte("bench")},
			BatchBytes:  shape.batchBytes,
			MaxInFlight: pipelineDepth,
		}
		if traced {
			cfg.OnLaunch = func(slot int) {
				if !l.tracing.Load() {
					return
				}
				select {
				case l.launches <- launch{party: i, slot: slot, at: time.Since(l.epoch)}:
				case <-l.closed:
				}
			}
		}
		hc.Launch(i, func() {
			l.engines[i] = abc.NewEngine(hc.Runtime(i), "bench", hc.Keys[i], cfg, l.pools[i],
				func(slot int, entries []abc.Entry) {
					select {
					case l.deliveries <- delivery{party: i, slot: slot, at: time.Since(l.epoch), entries: entries}:
					case <-l.closed:
					}
				}, nil)
			l.engines[i].Start()
		})
	}
	l.collected.Add(1)
	go l.collect()
	return l, nil
}

func (l *liveLedger) collect() {
	defer l.collected.Done()
	for {
		select {
		case d := <-l.deliveries:
			l.mu.Lock()
			l.check.deliver(d.party, d.slot, d.at, d.entries)
			l.mu.Unlock()
			select {
			case l.progress <- struct{}{}:
			default:
			}
		case la := <-l.launches:
			l.mu.Lock()
			l.launchAt[[2]int{la.party, la.slot}] = la.at
			l.mu.Unlock()
		case <-l.closed:
			return
		}
	}
}

// submit hands one transaction to party p's mempool (blocking while it is
// full) and wakes p's engine, as repro.Ledger.Submit does.
func (l *liveLedger) submit(ctx context.Context, p int, tx []byte) error {
	if err := l.pools[p].Submit(ctx, tx); err != nil {
		return err
	}
	// The engine read is ordered after the construction closure: both run
	// on party p's dispatcher, in launch order.
	l.hc.Launch(p, func() { l.engines[p].NotifyWork() })
	return nil
}

// awaitCommitted blocks until want distinct transactions committed at every
// party, or the timeout passes.
func (l *liveLedger) awaitCommitted(want int, timeout time.Duration) bool {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		l.mu.Lock()
		got := l.check.committed()
		l.mu.Unlock()
		if got >= want {
			return true
		}
		select {
		case <-l.progress:
		case <-deadline.C:
			return false
		}
	}
}

func (l *liveLedger) backlog() int {
	total := 0
	for _, p := range l.pools {
		total += p.Len()
	}
	return total
}

// close tears the cluster down and stops the collector; afterwards check and
// launchAt belong to the caller.
func (l *liveLedger) close() {
	l.closeOnce.Do(func() {
		close(l.closed)
		for _, p := range l.pools {
			p.Close()
		}
		l.hc.Close()
		l.collected.Wait()
	})
}

// lane is one stream of the benchmark's transactions, bound for one party's
// mempool. A transaction is an 8-byte sequence number — the lane's counter
// interleaved with the other lanes', so numbers are unique and every lane's
// are dense — followed by filler from the lane's seeded generator: the same
// seed gives the same inputs, and the checker can name every transaction it
// sees. due records when each of the lane's transactions was due, by counter.
type lane struct {
	index, party int
	rng          *rand.Rand
	size         int
	due          []time.Duration
}

// newLanes makes one lane per party; lane 0 feeds party first, and so on
// round the cluster.
func newLanes(seed int64, first, size int) []*lane {
	lanes := make([]*lane, clusterN)
	for i := range lanes {
		lanes[i] = &lane{
			index: i, party: (first + i) % clusterN, size: size,
			rng: rand.New(rand.NewSource(seed*clusterN + int64(i))),
		}
	}
	return lanes
}

// send submits the lane's next transaction, due at d. It reports whether the
// transaction was admitted; one that was not leaves no trace.
func (l *lane) send(ctx context.Context, d time.Duration, submit submitFunc) bool {
	tx := make([]byte, l.size)
	binary.BigEndian.PutUint64(tx, uint64(len(l.due)*clusterN+l.index))
	l.rng.Read(tx[txHeader:])
	if submit(ctx, l.party, tx) != nil {
		return false
	}
	l.due = append(l.due, d)
	return true
}

type submitFunc func(ctx context.Context, party int, tx []byte) error

// loadSchedule is when the generator sends, as offsets on the run's clock.
type loadSchedule struct {
	rate               float64 // open loop, tx/s; 0 = closed loop
	start, opens, ends time.Duration
}

// generate is the load generator; it returns when the schedule ends or a
// submit fails.
//
// Open loop: transaction k is due at start + k/rate whatever the system
// does, goes to lane k mod n, and is sent when due or — when the generator
// has fallen behind a stalled system — as soon as possible after. Its
// latency still counts from the due time; late reports how far behind the
// sends inside the window ran, in ms.
//
// Closed loop: one client per lane, each sending its next transaction the
// moment the previous submit returned, so every mempool stays full and the
// number of transactions in the system is the mempools' capacity rather than
// an accident of which party a shared client happened to wait for.
func generate(ctx context.Context, sch loadSchedule, now func() time.Duration, lanes []*lane, submit submitFunc) (late []float64) {
	if sch.rate > 0 {
		for k := 0; ; k++ {
			d := sch.start + time.Duration(float64(k)/sch.rate*float64(time.Second))
			if d >= sch.ends {
				return late
			}
			if wait := d - now(); wait > 0 {
				time.Sleep(wait)
			}
			if !lanes[k%len(lanes)].send(ctx, d, submit) {
				return late
			}
			if d >= sch.opens {
				late = append(late, ms(now()-d))
			}
		}
	}
	var clients sync.WaitGroup
	for _, l := range lanes {
		clients.Add(1)
		go func() {
			defer clients.Done()
			for d := now(); d < sch.ends; d = now() {
				if !l.send(ctx, d, submit) {
					return
				}
			}
		}()
	}
	clients.Wait()
	return nil
}

// plan is how long and how often a run measures; the workload says what.
type plan struct {
	window     time.Duration
	setups     int  // clusters set up per run; setup_s is their median
	warmRounds int  // process driver: rounds before the measured ones
	quick      bool // smoke run: short warm-up
	traced     bool
	speed      *speedometer // takes times to the reference speed; nil = as measured
	leafCalls  int          // traced: calls behind each leaf timing
	spanReps   int          // traced: instances behind each protocol span
	walOff     int          // traced: measured rounds on the WAL-off cluster
}

func (p plan) warmup(shape ledgerShape) time.Duration {
	if p.quick {
		return 500 * time.Millisecond
	}
	return shape.warmup
}

// traceSegments is how many equal parts a traced window is cut into. Odd
// parts run with the CPU profiler on and slot launches recorded, even parts
// without, so the two can be compared under the same drift.
const traceSegments = 4

// ledgerResult is everything one in-process run measured.
type ledgerResult struct {
	setups    []float64 // seconds at the reference speed, one per cluster set up
	setupsRaw []float64 // … as measured
	window    time.Duration
	slowdown  float64    // of the window, against the reference speed (1 = not corrected)
	speedN    int        // speed samples behind it
	samples   []txSample // commit latency of transactions due in the window
	txs       int        // transactions committed inside the window
	rates     []float64  // … per second, one per stretch, between the stretch's first and last slot commit
	slots     int        // slots committed inside the window
	entries   int        // batch entries of those slots
	submitted int
	failed    int // transactions that broke exactly-once, or all on a stall
	genLate   []float64
	counters  windowCounters
	saturated bool
	stalled   bool
	problems  []string

	// traced runs only
	plain       []txSample // latency of transactions due in an untraced segment
	traced      []txSample // … in a traced segment
	mempoolWait []float64  // ms, due → launch of the carrying slot at its origin
	slotSpans   []txSample // ms, origin launch → commit at the slowest party
	profiles    [][]byte   // one CPU profile per traced segment
}

const (
	setupTimeout = 30 * time.Second
	drainTimeout = 30 * time.Second
)

// setUp builds a ledger and commits one transaction on it: PKI, mesh
// handshakes, and whatever the first slot fills lazily.
func setUp(shape ledgerShape, seed int64, traced bool, lanes []*lane) (*liveLedger, float64, error) {
	t0 := time.Now()
	l, err := newLiveLedger(shape, seed, traced)
	if err != nil {
		return nil, 0, err
	}
	if !lanes[0].send(context.Background(), 0, l.submit) {
		l.close()
		return nil, 0, fmt.Errorf("first transaction refused")
	}
	if !l.awaitCommitted(1, setupTimeout) {
		l.close()
		return nil, 0, fmt.Errorf("first transaction not committed after %v", setupTimeout)
	}
	return l, time.Since(t0).Seconds(), nil
}

// runLedger executes one in-process workload: set up, warm up under load,
// measure for the window, drain, verify — once, or once per episode of the
// window. The plan's remaining set-ups are clusters that commit one
// transaction and are torn down. One runs first; the others run after the
// measured clusters, in memory the process already holds: a new process's
// first set-ups take twice as long whenever the host has to back the pages
// they touch (README, Steadiness), and with most of the set-ups up front
// setup_s flipped between the two.
func runLedger(shape ledgerShape, seed int64, p plan) (*ledgerResult, error) {
	res := &ledgerResult{window: p.window}
	speed := p.speed
	if shape.oneWay > 0 {
		speed = nil // delay-bound: time is not processor time, nothing to correct
	}
	episodes := 1
	if shape.episode > 0 {
		episodes = max(1, int(p.window/shape.episode))
	}
	// Set-up k of the run builds its cluster and its transactions from the
	// run's seed and k. Only the measured clusters differ from one another:
	// a later one given the first one's keys and batches would find their
	// proofs and Merkle trees in the process-wide caches.
	setUpOnce := func(k int) (*liveLedger, []*lane, error) {
		kseed := seed + int64(k)<<32
		lanes := newLanes(kseed, int(uint64(kseed)%clusterN), shape.txBytes)
		from := time.Now()
		l, s, err := setUp(shape, kseed, p.traced, lanes)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up %d: %w", len(res.setups), err)
		}
		slow, _ := speed.slowdown(from, time.Now())
		res.setupsRaw = append(res.setupsRaw, s)
		res.setups = append(res.setups, s/slow)
		return l, lanes, nil
	}
	bare := func(count int) error {
		for ; count > 0; count-- {
			l, _, err := setUpOnce(0)
			if err != nil {
				return err
			}
			l.close()
		}
		return nil
	}
	spare := max(0, p.setups-episodes)
	first := min(spare, 1)
	if err := bare(first); err != nil {
		return nil, err
	}
	var slowdowns []float64
	for k := 0; k < episodes; k++ {
		l, lanes, err := setUpOnce(k)
		if err != nil {
			return nil, err
		}
		slow, err := res.measure(l, lanes, shape, p, speed, k, p.window/time.Duration(episodes))
		if err != nil {
			return nil, err
		}
		slowdowns = append(slowdowns, slow)
		if k+1 < episodes {
			// Free what the episode retained before the next one
			// allocates it again; the heap stays mapped.
			runtime.GC()
		}
	}
	res.slowdown = median(slowdowns)
	if err := bare(spare - first); err != nil {
		return nil, err
	}
	if res.stalled || res.saturated {
		res.failed = res.submitted
	}
	return res, nil
}

// measure runs episode k of the window on l, a ledger that has been set up,
// adds what it measured to res and closes l. It returns the episode's
// slowdown against the reference speed.
func (res *ledgerResult) measure(run *liveLedger, lanes []*lane, shape ledgerShape, p plan, speed *speedometer, k int, length time.Duration) (float64, error) {
	defer run.close()
	loadStart := time.Since(run.epoch)
	win := window{opens: loadStart + p.warmup(shape)}
	win.ends = win.opens + length

	// The generator owns the lanes and late until it returns.
	var late []float64
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	submitterDone := make(chan struct{})
	go func() {
		defer close(submitterDone)
		sch := loadSchedule{rate: shape.rate, start: loadStart, opens: win.opens, ends: win.ends}
		late = generate(ctx, sch, func() time.Duration { return time.Since(run.epoch) }, lanes, run.submit)
	}()

	// Meanwhile: sample the mempool backlog, snapshot the counters at the
	// window's edges, and — traced — switch the profiler with the segments.
	var backlog []int
	var edge windowCounters
	var openedAt time.Time
	var profile *bytes.Buffer
	tick := time.NewTicker(50 * time.Millisecond)
	opened := false
	for now := time.Since(run.epoch); now < win.ends; now = time.Since(run.epoch) {
		if !opened && now >= win.opens {
			opened = true
			edge = snapshotCounters(run, p.traced)
			openedAt = time.Now()
		}
		if opened {
			backlog = append(backlog, run.backlog())
		}
		if want := p.traced && opened && win.part(now, traceSegments)%2 == 1; want != (profile != nil) {
			if want {
				profile = new(bytes.Buffer)
				if err := pprof.StartCPUProfile(profile); err != nil {
					return 0, fmt.Errorf("cpu profile: %w", err)
				}
			} else {
				pprof.StopCPUProfile()
				res.profiles = append(res.profiles, profile.Bytes())
				profile = nil
			}
			run.tracing.Store(want)
		}
		<-tick.C
	}
	tick.Stop()
	if profile != nil {
		pprof.StopCPUProfile()
		res.profiles = append(res.profiles, profile.Bytes())
		run.tracing.Store(false)
	}
	slow, speedN := speed.slowdown(openedAt, time.Now())
	res.speedN += speedN
	res.counters = res.counters.plus(snapshotCounters(run, p.traced).minus(edge))

	// The window is over. A closed-loop client may sit in a full mempool;
	// give it a moment to see the time, then cut it off.
	select {
	case <-submitterDone:
	case <-time.After(time.Second):
		cancel()
		<-submitterDone
	}
	sent := make([]int, len(lanes))
	submitted := 0
	for i, ln := range lanes {
		sent[i] = len(ln.due)
		submitted += sent[i]
	}
	res.submitted += submitted
	stalled := !run.awaitCommitted(submitted, drainTimeout)
	run.close()

	// The collector has stopped; its books are ours now.
	res.failed += run.check.finish(sent)
	res.problems = append(res.problems, run.check.problems...)
	res.genLate = append(res.genLate, late...)
	res.account(run.check, run.launchAt, lanes, win, k, p.traced)
	if stalled {
		res.stalled = true
		res.problems = append(res.problems, fmt.Sprintf("stalled: %d of %d transactions committed after %v", run.check.committed(), submitted, drainTimeout))
	}
	if shape.rate > 0 && backlogGrowing(backlog, shape.rate) {
		res.saturated = true
		res.problems = append(res.problems, "saturated: the mempool backlog was still growing when the window closed")
	}
	return slow, nil
}

// window locates instants on the run's clock relative to the measured
// window.
type window struct{ opens, ends time.Duration }

func (w window) contains(at time.Duration) bool { return at >= w.opens && at < w.ends }

// part says which of n equal parts of the window at falls in.
func (w window) part(at time.Duration, n int) int {
	return int((at - w.opens) * time.Duration(n) / (w.ends - w.opens))
}

// account adds the books of episode k's checker to the run's samples: slots
// and transactions committed inside the window, the per-stretch commit rate,
// and the latency of every transaction due inside the window.
func (res *ledgerResult) account(c *ledgerCheck, launchAt map[[2]int]time.Duration, lanes []*lane, win window, k int, traced bool) {
	for slot, at := range c.slotAt {
		if win.contains(at) {
			res.slots++
			res.entries += c.slotEntries[slot]
		}
	}
	// Per stretch: its first and last slot commit, and the transactions
	// committed after the first.
	type span struct {
		first, last time.Duration
		after       int
	}
	stretches := stretchCount(win.ends - win.opens)
	spans := make([]span, stretches)
	for _, rec := range c.commits {
		if win.contains(rec.at) {
			res.txs++
			sp := &spans[win.part(rec.at, stretches)]
			if sp.first == 0 {
				sp.first = rec.at
			}
			if sp.last = rec.at; rec.at > sp.first {
				sp.after++
			}
		}
		ln := lanes[rec.seq%uint64(len(lanes))]
		if rec.seq/uint64(len(lanes)) >= uint64(len(ln.due)) {
			continue // never submitted: the checker has reported it
		}
		d := ln.due[rec.seq/uint64(len(lanes))]
		if !win.contains(d) {
			continue // warm-up, or the set-up transaction
		}
		// Slots and stretches are numbered through the run's episodes.
		sample := txSample{ms: ms(rec.at - d), slot: k<<32 + rec.slot, stretch: k*stretches + win.part(d, stretches)}
		res.samples = append(res.samples, sample)
		if !traced {
			continue
		}
		if win.part(d, traceSegments)%2 == 0 {
			res.plain = append(res.plain, sample)
			continue
		}
		res.traced = append(res.traced, sample)
		if la, ok := launchAt[[2]int{rec.origin, rec.slot}]; ok {
			res.mempoolWait = append(res.mempoolWait, ms(la-d))
			res.slotSpans = append(res.slotSpans, txSample{ms: ms(rec.at - la), slot: sample.slot})
		}
	}
	for _, sp := range spans {
		if sp.last > sp.first {
			res.rates = append(res.rates, float64(sp.after)/(sp.last-sp.first).Seconds())
		}
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// backlogGrowing is the saturation rule of the open-loop workloads: over the
// window's last quarter the mempools held more than a second of offered
// load, and more than twice what they held over its second quarter.
func backlogGrowing(backlog []int, rate float64) bool {
	q := len(backlog) / 4
	if q == 0 {
		return false
	}
	mean := func(s []int) float64 {
		t := 0
		for _, v := range s {
			t += v
		}
		return float64(t) / float64(len(s))
	}
	early, last := mean(backlog[q:2*q]), mean(backlog[len(backlog)-q:])
	return last > rate && last > 2*early
}
