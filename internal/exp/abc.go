package exp

// Atomic-broadcast throughput runners for the BKR parallel-broadcast
// common-subset engine (abc.Engine). All throughput metrics are
// deterministic functions of the seeded run — transactions per 1000
// simulator deliveries, transactions per causal round, and per-slot commit
// latency in causal rounds (committing party's depth at commit minus depth
// at slot launch, maximized over honest parties) — so the committed
// BENCH_abc.json artifact is diff-gateable.

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"repro/internal/core/abc"
	"repro/internal/harness"
	"repro/internal/kinds"
)

// ABCConfig shapes one atomic-broadcast throughput run.
type ABCConfig struct {
	Slots       int // fixed slot horizon (≥ 1)
	BatchBytes  int // per-batch byte bound drawn from the mempool
	TxBytes     int // size of each synthetic transaction
	TxPerParty  int // transactions preloaded per honest party
	MaxInFlight int // pipeline depth (≤ 0 = engine default)
}

// ABCOutcome is the result of RunABC.
type ABCOutcome struct {
	Stats  Stats
	Agreed bool // all honest logs identical, slot by slot
	Slots  int  // slots committed
	Txs    int  // transactions committed across all slots
	// TxPerKStep is transactions committed per 1000 simulator deliveries —
	// the deterministic throughput metric (wall-clock tx/s lives in the
	// BenchmarkABCThroughput smoke, not in the committed artifact).
	TxPerKStep float64
	// TxPerRound is transactions per causal round at completion; pipelining
	// raises it by overlapping slot rounds.
	TxPerRound float64
	// LatMeanRounds/LatP95Rounds summarize per-slot commit latency in causal
	// rounds (max over honest parties per slot; p95 by nearest rank).
	LatMeanRounds float64
	LatP95Rounds  float64
	// Occupancy is the mean committed-set size per slot over n — ≥ (n−f)/n
	// by the BKR vote rule.
	Occupancy float64
}

// ABCInstance is one parallel-broadcast engine launched per honest party on
// a cluster. The engines' callbacks write its logs, launch counts and
// completion under Cluster.Update, so Log, Launched and Finished must be
// read under the same lock: inside Update or an Await predicate.
type ABCInstance struct {
	t       *tracker
	engines []*abc.Engine // each set in its party's dispatch context
	logs    map[int][][]abc.Entry
	launchD map[int][]int // causal depth at each local slot launch, in order
	commitD map[int][]int // causal depth at each slot commit, in order
}

// LaunchABC wires one abc.Engine per honest party under tag; pools[i] feeds
// party i's batches (preload before launching, or submit concurrently on
// the live runtime). The instance completes when every honest engine
// delivers its final slot, so cfg must bound the run (MaxSlots, or a
// RequestStop driven externally).
func LaunchABC(c *harness.Cluster, tag string, cfg abc.EngineConfig, pools []*abc.Mempool) *ABCInstance {
	ai := &ABCInstance{
		t:       newTracker(c, tag),
		engines: make([]*abc.Engine, c.N),
		logs:    make(map[int][][]abc.Entry),
		launchD: make(map[int][]int),
		commitD: make(map[int][]int),
	}
	c.EachHonest(func(i int) {
		pcfg := cfg
		pcfg.OnLaunch = func(int) {
			c.Update(func() { ai.launchD[i] = append(ai.launchD[i], c.Depth(i)) })
		}
		c.Launch(i, func() {
			ai.engines[i] = abc.NewEngine(c.Runtime(i), tag, c.Keys[i], pcfg, pools[i],
				func(slot int, entries []abc.Entry) {
					c.Update(func() {
						ai.logs[i] = append(ai.logs[i], entries)
						ai.commitD[i] = append(ai.commitD[i], c.Depth(i))
						ai.t.bump(i)
					})
				},
				func(int) {
					c.Update(func() { ai.t.report(i) })
				})
			ai.engines[i].Start()
		})
	})
	return ai
}

// Engine returns party i's engine. Use it only in party i's dispatch
// context (a Cluster.Launch(i, …) closure), which runs after construction.
func (ai *ABCInstance) Engine(i int) *abc.Engine { return ai.engines[i] }

// Log returns the slots party i has committed so far, in slot order.
func (ai *ABCInstance) Log(i int) [][]abc.Entry { return ai.logs[i] }

// Launched reports how many slots party i has launched.
func (ai *ABCInstance) Launched(i int) int { return len(ai.launchD[i]) }

// Finished reports whether every honest engine delivered its final slot.
func (ai *ABCInstance) Finished() bool { return ai.t.done() }

// Wait blocks until every honest engine finished its log.
func (ai *ABCInstance) Wait(ctx context.Context) error { return ai.t.wait(ctx) }

// Outcome aggregates the instance after Wait returned nil.
func (ai *ABCInstance) Outcome() ABCOutcome {
	c := ai.t.c
	out := ABCOutcome{Agreed: true}
	var ref [][]abc.Entry
	haveRef := false
	c.EachHonest(func(i int) {
		if !haveRef {
			ref, haveRef = ai.logs[i], true
		} else if !slices.EqualFunc(ref, ai.logs[i], abc.SameEntries) {
			out.Agreed = false
		}
	})
	out.Slots = len(ref)
	totalEntries := 0
	for _, entries := range ref {
		totalEntries += len(entries)
		for _, e := range entries {
			out.Txs += len(e.Txs)
		}
	}
	out.LatMeanRounds, out.LatP95Rounds = latencySummary(c, ai.launchD, ai.commitD, out.Slots)
	out.Stats = ai.t.stats()
	finishThroughput(&out, totalEntries, c.N)
	return out
}

// RunABC executes one fixed-horizon atomic-broadcast run: cfg.Slots slots
// over a fresh cluster, each honest party preloaded with cfg.TxPerParty
// synthetic transactions.
func RunABC(spec RunSpec, cfg ABCConfig) (ABCOutcome, error) {
	c, err := spec.cluster()
	if err != nil {
		return ABCOutcome{}, err
	}
	pools := preloadPools(c, cfg)
	inst := LaunchABC(c, "abc", abc.EngineConfig{
		Coin:        spec.coinCfg(),
		BatchBytes:  cfg.BatchBytes,
		MaxInFlight: cfg.MaxInFlight,
		MaxSlots:    cfg.Slots,
	}, pools)
	if err := inst.Wait(context.Background()); err != nil {
		return ABCOutcome{}, fmt.Errorf("abc run: %w", err)
	}
	return inst.Outcome(), nil
}

// preloadPools builds each honest party's mempool and fills it with the
// ledger kind's deterministic transactions.
func preloadPools(c *harness.Cluster, cfg ABCConfig) []*abc.Mempool {
	pools := make([]*abc.Mempool, c.N)
	c.EachHonest(func(i int) {
		pools[i] = abc.NewMempool(2*cfg.TxPerParty*cfg.TxBytes + 64)
		for q := 0; q < cfg.TxPerParty; q++ {
			// The pool is sized to hold the whole preload; Submit never blocks.
			_ = pools[i].Submit(context.Background(), kinds.LedgerTx(i, q, cfg.TxBytes))
		}
	})
	return pools
}

// latencySummary reduces per-party launch/commit depth traces to the
// per-slot commit latency distribution: for each slot the max over honest
// parties of (commit depth − launch depth), then mean and nearest-rank p95.
func latencySummary(c *harness.Cluster, launchD, commitD map[int][]int, slots int) (mean, p95 float64) {
	var lats []float64
	for s := 0; s < slots; s++ {
		worst := 0.0
		c.EachHonest(func(i int) {
			if s < len(commitD[i]) && s < len(launchD[i]) {
				if d := float64(commitD[i][s] - launchD[i][s]); d > worst {
					worst = d
				}
			}
		})
		lats = append(lats, worst)
	}
	if len(lats) == 0 {
		return 0, 0
	}
	total := 0.0
	for _, l := range lats {
		total += l
	}
	mean = total / float64(len(lats))
	sorted := append([]float64(nil), lats...)
	sort.Float64s(sorted)
	rank := (95*len(sorted) + 99) / 100 // ceil(0.95·n), nearest-rank
	p95 = sorted[rank-1]
	return mean, p95
}

// finishThroughput derives the per-step and per-round throughput fields
// from the already-populated Stats and tx count.
func finishThroughput(out *ABCOutcome, totalEntries, n int) {
	if out.Stats.Steps > 0 {
		out.TxPerKStep = float64(out.Txs) * 1000 / float64(out.Stats.Steps)
	}
	if out.Stats.Rounds > 0 {
		out.TxPerRound = float64(out.Txs) / float64(out.Stats.Rounds)
	}
	if out.Slots > 0 {
		out.Occupancy = float64(totalEntries) / float64(out.Slots*n)
	}
}
