package abc

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/core/aba"
	"repro/internal/core/coin"
	"repro/internal/harness"
	"repro/internal/sim"
	"repro/internal/wire"
)

// slotLog records one party's view of the committed log.
type slotLog struct {
	slots   []([]Entry)
	final   int
	done    bool
	launchO []int // slot indexes in local launch order
}

type engFixture struct {
	c       *harness.Cluster
	pools   []*Mempool
	engines []*Engine
	logs    map[int]*slotLog
}

func engCfg(extra EngineConfig) EngineConfig {
	cfg := extra
	if cfg.Coin.GenesisNonce == nil {
		cfg.Coin = coin.Config{GenesisNonce: []byte("abc-engine-test")}
	}
	return cfg
}

func setupEngines(t *testing.T, n, f int, seed int64, opts harness.Options, cfg EngineConfig) *engFixture {
	t.Helper()
	c, err := harness.NewCluster(n, f, seed, opts)
	if err != nil {
		t.Fatal(err)
	}
	fx := &engFixture{
		c:       c,
		pools:   make([]*Mempool, n),
		engines: make([]*Engine, n),
		logs:    make(map[int]*slotLog),
	}
	c.EachHonest(func(i int) {
		fx.pools[i] = NewMempool(1 << 20)
		lg := &slotLog{final: -1}
		fx.logs[i] = lg
		pcfg := cfg
		pcfg.OnLaunch = func(slot int) { lg.launchO = append(lg.launchO, slot) }
		fx.engines[i] = NewEngine(c.Net.Node(i), "acs", c.Keys[i], pcfg, fx.pools[i],
			func(slot int, entries []Entry) {
				if slot != len(lg.slots) {
					t.Errorf("node %d delivered slot %d out of order (have %d)", i, slot, len(lg.slots))
				}
				lg.slots = append(lg.slots, entries)
			},
			func(final int) { lg.final, lg.done = final, true })
	})
	return fx
}

func (fx *engFixture) preload(t *testing.T, txPerParty int) {
	t.Helper()
	fx.c.EachHonest(func(i int) {
		for k := 0; k < txPerParty; k++ {
			tx := []byte(fmt.Sprintf("tx|p%d|%d", i, k))
			if err := fx.pools[i].Submit(context.Background(), tx); err != nil {
				t.Fatal(err)
			}
		}
	})
}

func (fx *engFixture) start() {
	fx.c.EachHonest(func(i int) { fx.engines[i].Start() })
}

func (fx *engFixture) allDone() func() bool {
	return func() bool {
		ok := true
		fx.c.EachHonest(func(i int) {
			if !fx.logs[i].done {
				ok = false
			}
		})
		return ok
	}
}

// checkIdentical asserts every honest log matches party `ref`'s, slot by
// slot, entry by entry.
func (fx *engFixture) checkIdentical(t *testing.T) {
	t.Helper()
	var ref *slotLog
	var refID int
	fx.c.EachHonest(func(i int) {
		if ref == nil {
			ref, refID = fx.logs[i], i
		}
	})
	fx.c.EachHonest(func(i int) {
		lg := fx.logs[i]
		if len(lg.slots) != len(ref.slots) || lg.final != ref.final {
			t.Fatalf("node %d log shape (%d slots, final %d) != node %d (%d slots, final %d)",
				i, len(lg.slots), lg.final, refID, len(ref.slots), ref.final)
		}
		for s := range lg.slots {
			a, b := lg.slots[s], ref.slots[s]
			if len(a) != len(b) {
				t.Fatalf("node %d slot %d has %d entries, node %d has %d", i, s, len(a), refID, len(b))
			}
			for e := range a {
				if a[e].Origin != b[e].Origin || len(a[e].Txs) != len(b[e].Txs) {
					t.Fatalf("node %d slot %d entry %d diverges", i, s, e)
				}
				for x := range a[e].Txs {
					if !bytes.Equal(a[e].Txs[x], b[e].Txs[x]) {
						t.Fatalf("node %d slot %d entry %d tx %d diverges", i, s, e, x)
					}
				}
			}
		}
	})
}

// committedTxs flattens one log into the multiset of committed txs.
func committedTxs(lg *slotLog) map[string]int {
	out := make(map[string]int)
	for _, entries := range lg.slots {
		for _, e := range entries {
			for _, tx := range e.Txs {
				out[string(tx)]++
			}
		}
	}
	return out
}

func TestEngineLogsIdenticalAndFull(t *testing.T) {
	const n, f, slots = 4, 1, 3
	fx := setupEngines(t, n, f, 1, harness.Options{}, engCfg(EngineConfig{MaxSlots: slots, BatchBytes: 64}))
	fx.preload(t, 2)
	fx.start()
	if err := fx.c.Net.Run(sim.DefaultDeliveryBudget, fx.allDone()); err != nil {
		t.Fatal(err)
	}
	fx.checkIdentical(t)
	lg := fx.logs[0]
	if len(lg.slots) != slots || lg.final != slots-1 {
		t.Fatalf("got %d slots, final %d; want %d slots", len(lg.slots), lg.final, slots)
	}
	for s, entries := range lg.slots {
		if len(entries) < n-f {
			t.Fatalf("slot %d committed only %d entries, BKR guarantees >= n-f = %d", s, len(entries), n-f)
		}
		for e := 1; e < len(entries); e++ {
			if entries[e].Origin <= entries[e-1].Origin {
				t.Fatalf("slot %d entries not in origin order", s)
			}
		}
	}
}

func TestEngineToleratesCrashFaults(t *testing.T) {
	const n, f, slots = 7, 2, 2
	byz := harness.LastFByzantine(n, f)
	fx := setupEngines(t, n, f, 2, harness.Options{Byzantine: byz, Crash: true},
		engCfg(EngineConfig{MaxSlots: slots, BatchBytes: 64}))
	fx.preload(t, 2)
	fx.start()
	if err := fx.c.Net.Run(sim.DefaultDeliveryBudget, fx.allDone()); err != nil {
		t.Fatal(err)
	}
	fx.checkIdentical(t)
	for s, entries := range fx.logs[0].slots {
		if len(entries) < n-f {
			t.Fatalf("slot %d committed %d entries under crash(f), want >= %d", s, len(entries), n-f)
		}
		for _, e := range entries {
			if e.Origin >= n-f {
				t.Fatalf("slot %d committed crashed party %d's batch", s, e.Origin)
			}
		}
	}
}

func TestEngineAdversarialSchedulers(t *testing.T) {
	// Split-input ABAs are expected here, so the per-instance test coin
	// keeps the run about the agreement logic rather than coin cost.
	coins := func(inst string) aba.CoinFactory { return aba.TestCoins(inst) }
	// LIFO at n=7 runs ~700k deliveries (it starves every ABA quorum until
	// the queue forces progress); the n=7 LIFO/partition coverage lives in
	// the ledger-level suite, so the engine-level LIFO case stays at n=4.
	for _, tc := range []struct {
		name  string
		n, f  int
		sched sim.Scheduler
	}{
		{"lifo", 4, 1, sim.LIFOScheduler()},
		{"partition", 7, 2, sim.NewPartition(map[int]bool{0: true, 1: true}, 4000, nil)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const slots = 2
			n, f := tc.n, tc.f
			fx := setupEngines(t, n, f, 3, harness.Options{Scheduler: tc.sched},
				engCfg(EngineConfig{MaxSlots: slots, BatchBytes: 64, Coins: coins}))
			fx.preload(t, 2)
			fx.start()
			if err := fx.c.Net.Run(sim.DefaultDeliveryBudget, fx.allDone()); err != nil {
				t.Fatal(err)
			}
			fx.checkIdentical(t)
		})
	}
}

// TestEnginePipelines asserts the throughput edge exists structurally: with
// MaxInFlight=2 a party launches slot 1 before it has delivered slot 0.
func TestEnginePipelines(t *testing.T) {
	const n, f, slots = 4, 1, 3
	launchedBeforeCommit := false
	fx := setupEngines(t, n, f, 4, harness.Options{}, engCfg(EngineConfig{MaxSlots: slots, MaxInFlight: 2, BatchBytes: 64}))
	fx.preload(t, 3)
	cfgd := fx.engines[0]
	orig := cfgd.cfg.OnLaunch
	cfgd.cfg.OnLaunch = func(slot int) {
		if slot > 0 && cfgd.DeliveredThrough() < slot {
			launchedBeforeCommit = true
		}
		orig(slot)
	}
	fx.start()
	if err := fx.c.Net.Run(sim.DefaultDeliveryBudget, fx.allDone()); err != nil {
		t.Fatal(err)
	}
	if !launchedBeforeCommit {
		t.Fatal("no slot launched ahead of the delivered frontier; pipelining is inert")
	}
	fx.checkIdentical(t)
}

// TestEngineStreamingStopDrains covers the streaming lifecycle: work-gated
// launching, the in-band stop agreement, and exactly-once commitment of
// every submitted transaction.
func TestEngineStreamingStopDrains(t *testing.T) {
	const n, f = 4, 1
	fx := setupEngines(t, n, f, 5, harness.Options{}, engCfg(EngineConfig{BatchBytes: 64}))
	fx.preload(t, 3)
	fx.start()
	fx.c.EachHonest(func(i int) { fx.engines[i].RequestStop() })
	if err := fx.c.Net.Run(sim.DefaultDeliveryBudget, fx.allDone()); err != nil {
		t.Fatal(err)
	}
	fx.checkIdentical(t)
	want := make(map[string]int)
	fx.c.EachHonest(func(i int) {
		for k := 0; k < 3; k++ {
			want[fmt.Sprintf("tx|p%d|%d", i, k)]++
		}
	})
	got := committedTxs(fx.logs[0])
	for tx, cnt := range want {
		if got[tx] != cnt {
			t.Fatalf("tx %q committed %d times, want %d", tx, got[tx], cnt)
		}
	}
	for tx, cnt := range got {
		if want[tx] != cnt {
			t.Fatalf("unexpected committed tx %q (x%d)", tx, cnt)
		}
	}
	fx.c.EachHonest(func(i int) {
		if !fx.pools[i].Empty() {
			t.Fatalf("node %d stopped with %d txs still pooled", i, fx.pools[i].Len())
		}
	})
}

// TestEngineQuiescesWhenIdle asserts the work-conserving property: idle
// streaming engines put nothing on the wire, a single party's submission
// wakes the whole cluster via WAKE, and the network quiesces again after
// the slot commits.
func TestEngineQuiescesWhenIdle(t *testing.T) {
	const n, f = 4, 1
	fx := setupEngines(t, n, f, 6, harness.Options{}, engCfg(EngineConfig{BatchBytes: 64}))
	fx.start()
	if got := fx.c.Net.Pending(); got != 0 {
		t.Fatalf("idle engines enqueued %d messages", got)
	}
	if err := fx.pools[2].Submit(context.Background(), []byte("tx|solo")); err != nil {
		t.Fatal(err)
	}
	fx.engines[2].NotifyWork()
	committedEverywhere := func() bool {
		ok := true
		fx.c.EachHonest(func(i int) {
			if len(fx.logs[i].slots) < 1 {
				ok = false
			}
		})
		return ok
	}
	if err := fx.c.Net.Run(sim.DefaultDeliveryBudget, committedEverywhere); err != nil {
		t.Fatal(err)
	}
	if got := committedTxs(fx.logs[0])["tx|solo"]; got != 1 {
		t.Fatalf("solo tx committed %d times, want 1", got)
	}
	// Drain whatever the commit left in flight; the queue must then empty
	// rather than spin empty slots (Run returns a stall on a drained queue,
	// which is exactly the quiescence being asserted).
	if err := fx.c.Net.Run(sim.DefaultDeliveryBudget, func() bool { return false }); err == nil {
		t.Fatal("network kept making progress with no queued work")
	} else if _, ok := err.(*sim.StallError); !ok {
		t.Fatalf("expected quiescence stall, got %v", err)
	}
	fx.c.EachHonest(func(i int) { fx.engines[i].RequestStop() })
	if err := fx.c.Net.Run(sim.DefaultDeliveryBudget, fx.allDone()); err != nil {
		t.Fatal(err)
	}
	fx.checkIdentical(t)
}

// TestEngineFinishRequeuesPipelinedBatches forces transactions into a
// pipelined slot past the final slot and asserts conservation. Party 0
// holds two batches at stop time, so it launches slot 1 (carrying batch B)
// while slot 0 (batch A) is still in flight; a partition isolating party 0
// lets parties 1-3 vote its slot-0 broadcast out and commit slot 0
// all-stop among their own flagged empty batches. Slot 0 is therefore
// final and slot 1 is discarded identically everywhere, so neither A nor B
// commits: A must come back via the final-slot exclusion requeue, and B
// via the finish-time reclaim of pipelined slots — before that reclaim, B
// was silently lost (it had left the pool, and Ledger.Stop's leftover
// sweep only inspects pools).
func TestEngineFinishRequeuesPipelinedBatches(t *testing.T) {
	const n, f = 4, 1
	coins := func(inst string) aba.CoinFactory { return aba.TestCoins(inst) }
	sched := sim.NewPartition(map[int]bool{0: true}, 3000, nil)
	fx := setupEngines(t, n, f, 8, harness.Options{Scheduler: sched},
		engCfg(EngineConfig{BatchBytes: 64, MaxInFlight: 2, Coins: coins}))
	// Two 40-byte txs against 64-byte batches: slot 0's Take carries only
	// tx A, leaving tx B for pipelined slot 1.
	txA := make([]byte, 40)
	copy(txA, "tx|p0|A")
	txB := make([]byte, 40)
	copy(txB, "tx|p0|B")
	for _, tx := range [][]byte{txA, txB} {
		if err := fx.pools[0].Submit(context.Background(), tx); err != nil {
			t.Fatal(err)
		}
	}
	fx.start()
	fx.c.EachHonest(func(i int) { fx.engines[i].RequestStop() })
	if err := fx.c.Net.Run(sim.DefaultDeliveryBudget, fx.allDone()); err != nil {
		t.Fatal(err)
	}
	fx.checkIdentical(t)
	// The scenario must actually have armed: party 0 pipelined a slot past
	// the agreed final slot 0 (otherwise the test exercises nothing).
	lg := fx.logs[0]
	if lg.final != 0 || len(lg.launchO) < 2 {
		t.Fatalf("scenario did not arm: final=%d, launched=%v (want final slot 0 with a pipelined slot past it)",
			lg.final, lg.launchO)
	}
	got := committedTxs(lg)
	pooled := make(map[string]int)
	for !fx.pools[0].Empty() {
		for _, tx := range fx.pools[0].Take(1 << 30) {
			pooled[string(tx)]++
		}
	}
	// Conservation: each tx is committed exactly once or back in the pool
	// exactly once — never lost, never duplicated.
	for _, tx := range []string{string(txA), string(txB)} {
		if got[tx]+pooled[tx] != 1 {
			t.Fatalf("tx %q committed %d times and pooled %d times; want exactly one of the two",
				tx, got[tx], pooled[tx])
		}
	}
	if got[string(txB)] != 0 {
		t.Fatalf("tx B committed despite its slot being past the final slot — premise broken")
	}
}

// TestEngineWakeClampBoundsForcedSlots: a forged WAKE naming a far-future
// slot must pull the engines forward by at most one pipeline window of
// empty slots per forged message, not launch toward 2^30 — and must not
// wedge subsequent real work. One forgery is sent to party 0; the honest
// WAKEs of the slots it is dragged into then pull the rest of the cluster,
// so every party's damage is bounded by the same window.
func TestEngineWakeClampBoundsForcedSlots(t *testing.T) {
	const n, f = 4, 1
	fx := setupEngines(t, n, f, 9, harness.Options{}, engCfg(EngineConfig{BatchBytes: 64, MaxInFlight: 2}))
	fx.start()
	var w wire.Writer
	w.Byte(engWake)
	w.Int(1 << 20)
	fx.c.Net.Inject(n-1, 0, "acs", w.Bytes())
	if err := fx.c.Net.Run(sim.DefaultDeliveryBudget, func() bool { return false }); err == nil {
		t.Fatal("network never quiesced after the forged WAKE")
	} else if stall, ok := err.(*sim.StallError); !ok || !stall.Drained {
		t.Fatalf("expected drained quiescence after bounded catch-up, got %v", err)
	}
	fx.c.EachHonest(func(i int) {
		if got := len(fx.logs[i].launchO); got > 2 {
			t.Fatalf("node %d launched %d slots off one forged WAKE, want <= MaxInFlight = 2", i, got)
		}
	})
	// The clamp must not cost liveness: real work still commits.
	if err := fx.pools[2].Submit(context.Background(), []byte("tx|post-wake")); err != nil {
		t.Fatal(err)
	}
	fx.engines[2].NotifyWork()
	committed := func() bool {
		return committedTxs(fx.logs[2])["tx|post-wake"] == 1
	}
	if err := fx.c.Net.Run(sim.DefaultDeliveryBudget, committed); err != nil {
		t.Fatal(err)
	}
}

func TestBatchCodecRoundTrip(t *testing.T) {
	txs := [][]byte{[]byte("a"), {}, []byte("long-transaction-payload")}
	for _, stop := range []bool{false, true} {
		got, gotStop, err := DecodeBatch(EncodeBatch(txs, stop))
		if err != nil {
			t.Fatal(err)
		}
		if gotStop != stop || len(got) != len(txs) {
			t.Fatalf("roundtrip mismatch: stop=%v txs=%d", gotStop, len(got))
		}
		for i := range txs {
			if !bytes.Equal(got[i], txs[i]) {
				t.Fatalf("tx %d mismatch", i)
			}
		}
	}
	if _, _, err := DecodeBatch([]byte{1}); err == nil {
		t.Fatal("truncated batch decoded")
	}
	if _, _, err := DecodeBatch(append(EncodeBatch(txs, false), 0xFF)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}

func TestMempoolBackpressureBlocksNotDrops(t *testing.T) {
	m := NewMempool(10)
	if err := m.Submit(context.Background(), make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	// Full: this Submit must block until Take frees space, then succeed.
	unblocked := make(chan error, 1)
	go func() { unblocked <- m.Submit(context.Background(), make([]byte, 8)) }()
	select {
	case err := <-unblocked:
		t.Fatalf("submit into a full pool returned early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	if got := m.Take(100); len(got) != 1 {
		t.Fatalf("take returned %d txs", len(got))
	}
	if err := <-unblocked; err != nil {
		t.Fatalf("blocked submit failed after space freed: %v", err)
	}
	if m.Len() != 1 {
		t.Fatalf("pool has %d txs, want the unblocked one", m.Len())
	}
}

func TestMempoolSubmitHonorsContextAndClose(t *testing.T) {
	m := NewMempool(4)
	if err := m.Submit(context.Background(), []byte("abcd")); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := m.Submit(ctx, []byte("x")); err != context.DeadlineExceeded {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if err := m.Submit(context.Background(), []byte("toolarge!")); err == nil {
		t.Fatal("oversized tx accepted")
	}
	m.Close()
	if err := m.Submit(context.Background(), []byte("y")); err != ErrMempoolClosed {
		t.Fatalf("want ErrMempoolClosed, got %v", err)
	}
	// Queued txs remain takeable after Close (drain semantics).
	if got := m.Take(100); len(got) != 1 || string(got[0]) != "abcd" {
		t.Fatalf("post-close take returned %q", got)
	}
}

func TestMempoolTakeAndRequeueOrder(t *testing.T) {
	m := NewMempool(100)
	for _, s := range []string{"aa", "bb", "cc"} {
		if err := m.Submit(context.Background(), []byte(s)); err != nil {
			t.Fatal(err)
		}
	}
	got := m.Take(4) // aa+bb fill the bound; cc stays
	if len(got) != 2 || string(got[0]) != "aa" || string(got[1]) != "bb" {
		t.Fatalf("take(4) = %q", got)
	}
	m.Requeue(got) // excluded slot: back to the front, ahead of cc
	all := m.Take(100)
	if len(all) != 3 || string(all[0]) != "aa" || string(all[1]) != "bb" || string(all[2]) != "cc" {
		t.Fatalf("post-requeue order = %q", all)
	}
	if m.Bytes() != 0 || !m.Empty() {
		t.Fatalf("pool not empty after draining: %d bytes", m.Bytes())
	}
}

// TestMempoolLeftoverCycleSurvivesStopRestart models handing a stopped
// pool's remainder to a restarted party: a stopping party requeues its
// excluded in-flight batch, closes the pool, harvests the remainder with
// Take, and the restarted party Requeues that remainder into a fresh
// pool. Submission order must survive the whole cycle with nothing lost
// or duplicated, and the fresh pool must still admit new submissions
// behind the restored front.
func TestMempoolLeftoverCycleSurvivesStopRestart(t *testing.T) {
	old := NewMempool(1 << 10)
	for i := 0; i < 6; i++ {
		if err := old.Submit(context.Background(), []byte(fmt.Sprintf("tx%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// A dying slot hands its in-flight batch back before the stop.
	inflight := old.Take(7) // "tx0"+"tx1" fill the bound
	if len(inflight) != 2 {
		t.Fatalf("in-flight take = %q", inflight)
	}
	old.Requeue(inflight)
	old.Close()

	// Harvest the leftovers: drain with Take so accounting hits zero, in
	// front-to-back order.
	var leftovers [][]byte
	for {
		batch := old.Take(1 << 20)
		if len(batch) == 0 {
			break
		}
		leftovers = append(leftovers, batch...)
	}
	if old.Bytes() != 0 || !old.Empty() {
		t.Fatalf("stopped pool not drained: %d bytes", old.Bytes())
	}

	// Restart: restore into a fresh pool, then keep submitting behind it.
	fresh := NewMempool(1 << 10)
	fresh.Requeue(leftovers)
	if fresh.Len() != 6 || fresh.Bytes() != 6*3 {
		t.Fatalf("restored pool holds %d txs / %d bytes", fresh.Len(), fresh.Bytes())
	}
	if err := fresh.Submit(context.Background(), []byte("tx6")); err != nil {
		t.Fatal(err)
	}
	all := fresh.Take(1 << 20)
	if len(all) != 7 {
		t.Fatalf("restarted pool delivered %d txs, want exactly-once 7", len(all))
	}
	for i, tx := range all {
		if want := fmt.Sprintf("tx%d", i); string(tx) != want {
			t.Fatalf("position %d = %q, want %q (order lost across stop/restart)", i, tx, want)
		}
	}
}
