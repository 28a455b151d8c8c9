package nodenet

// The chaos-kill harness: run ledger workloads on a real multi-process
// cluster while a seeded killer SIGKILLs and restarts up to f parties
// mid-stream, then prove crash recovery preserved the protocol's outputs.
//
// What can be asserted is dictated by the abc engine's semantics. Within
// one run, agreement is absolute: every party (including a party rebuilt
// from its WAL) must report the identical chained digest, final slot and
// tx count. Across runs, only the delivered transaction *multiset* is
// forced — a kill can make the BKR round exclude the victim's in-flight
// batch, its transactions requeue and re-ride a later slot, and the slot
// layout legally diverges from an uninterrupted run. So the cross-run
// gate is the order-insensitive set digest (Decision.TxSet), compared
// against both an uninterrupted reference run and the analytically
// expected value, plus exactly-once delivery (Txs == n*TxCount).
//
// BENCH_chaos.json commits only this deterministic surface; restart and
// replay counters are recorded for inspection, never compared.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/kinds"
	"repro/internal/noded"
)

// chaosSeedSalt decorrelates the kill schedule from the protocol seed.
const chaosSeedSalt = 0x0c4a05

// ChaosOptions shapes one chaos run.
type ChaosOptions struct {
	N, F    int
	Seed    int64
	BinPath string // "" = build cmd/noded into a temp dir

	Kills   int // kill/restart cycles across the run (default F)
	Rounds  int // ledger workloads run back to back (default 2)
	TxCount int // txs per party per round (default 16)
	TxBytes int // bytes per tx (default 64)
}

func (o *ChaosOptions) defaults() {
	if o.F <= 0 {
		o.F = (o.N - 1) / 3
	}
	if o.Kills <= 0 {
		o.Kills = o.F
	}
	if o.Rounds <= 0 {
		o.Rounds = 2
	}
	if o.TxCount <= 0 {
		o.TxCount = 16
	}
	if o.TxBytes <= 0 {
		o.TxBytes = 64
	}
}

// ChaosRound is one ledger workload's gated outcome.
type ChaosRound struct {
	Tag   string `json:"tag"`
	Txs   int    `json:"txs"`
	TxSet string `json:"txSet"`
	Kills []int  `json:"kills"` // victims killed during this round, in order

	// Informational: never compared (slot layout and wall-clock are
	// timing-dependent under crash/recovery).
	FinalSlot int   `json:"finalSlot"`
	ElapsedMS int64 `json:"elapsedMs"`
}

// ChaosDoc is the committed artifact.
type ChaosDoc struct {
	N       int          `json:"n"`
	F       int          `json:"f"`
	Seed    int64        `json:"seed"`
	Kills   int          `json:"kills"`
	Rounds  []ChaosRound `json:"rounds"`
	TxCount int          `json:"txCount"`
	TxBytes int          `json:"txBytes"`

	// Informational recovery counters summed across parties.
	Restarts        int64 `json:"restarts"`
	ReplayedRecords int64 `json:"replayedRecords"`
	ReplayedFrames  int64 `json:"replayedFrames"`
	WALCompactions  int64 `json:"walCompactions"`
}

// runChaosLedger launches one no-AutoStop ledger round on every party,
// runs mid() between launch and drain (the kill window), then drains and
// awaits, asserting within-run agreement.
func runChaosLedger(cl *Cluster, tag string, txCount, txBytes int, mid func() error) ([]*noded.Decision, error) {
	if _, err := cl.CallAll(func(int) *noded.Request {
		return &noded.Request{
			Op: noded.OpLaunch, Kind: "ledger", Tag: tag,
			TxCount: txCount, TxBytes: txBytes,
		}
	}, 30*time.Second); err != nil {
		return nil, fmt.Errorf("%s: launch: %w", tag, err)
	}
	if mid != nil {
		if err := mid(); err != nil {
			return nil, fmt.Errorf("%s: %w", tag, err)
		}
	}
	if _, err := cl.CallAll(func(int) *noded.Request {
		return &noded.Request{Op: noded.OpDrain, Tag: tag}
	}, 30*time.Second); err != nil {
		return nil, fmt.Errorf("%s: drain: %w", tag, err)
	}
	decs, err := cl.AwaitAll(tag)
	if err != nil {
		return nil, fmt.Errorf("%s: await: %w", tag, err)
	}
	if !kinds.Agree(decs) {
		return nil, fmt.Errorf("%s: processes disagree: %+v", tag, decs)
	}
	return decs, nil
}

// RunChaos executes the reference run and the chaos run and returns the
// gated outcome. Both runs use the same protocol seed; only the chaos run
// enables WALs and suffers kills.
func RunChaos(opts ChaosOptions) (*ChaosDoc, error) {
	opts.defaults()
	n := opts.N
	expectTxs := n * opts.TxCount
	expectSet := noded.ExpectedTxSet(n, opts.TxCount, opts.TxBytes)

	// Phase 1 — uninterrupted reference run (no WAL, no kills). Its per-
	// round tx sets are the cross-run baseline the chaos run must hit.
	ref, err := Launch(Options{N: n, F: opts.F, Seed: opts.Seed, BinPath: opts.BinPath})
	if err != nil {
		return nil, fmt.Errorf("chaos: launch reference cluster: %w", err)
	}
	refSets := make([]string, opts.Rounds)
	for r := 0; r < opts.Rounds; r++ {
		tag := fmt.Sprintf("chaos/w%d", r)
		decs, err := runChaosLedger(ref, tag, opts.TxCount, opts.TxBytes, nil)
		if err != nil {
			ref.Close()
			return nil, fmt.Errorf("chaos: reference %w", err)
		}
		if decs[0].Txs != expectTxs || decs[0].TxSet != expectSet {
			ref.Close()
			return nil, fmt.Errorf("chaos: reference %s delivered txs=%d set=%s, expected txs=%d set=%s",
				tag, decs[0].Txs, decs[0].TxSet, expectTxs, expectSet)
		}
		refSets[r] = decs[0].TxSet
	}
	stopErr := ref.Stop(60 * time.Second)
	ref.Close()
	if stopErr != nil {
		return nil, fmt.Errorf("chaos: stop reference cluster: %w", stopErr)
	}

	// Phase 2 — chaos run: same seed, WALs on, seeded kill schedule.
	cl, err := Launch(Options{N: n, F: opts.F, Seed: opts.Seed, BinPath: opts.BinPath, WAL: true})
	if err != nil {
		return nil, fmt.Errorf("chaos: launch chaos cluster: %w", err)
	}
	defer cl.Close()

	rng := rand.New(rand.NewSource(opts.Seed ^ chaosSeedSalt))
	// Spread the kill budget across rounds, front-loaded.
	killsIn := make([]int, opts.Rounds)
	for k := 0; k < opts.Kills; k++ {
		killsIn[k%opts.Rounds]++
	}

	doc := &ChaosDoc{
		N: n, F: opts.F, Seed: opts.Seed, Kills: opts.Kills,
		TxCount: opts.TxCount, TxBytes: opts.TxBytes,
	}
	for r := 0; r < opts.Rounds; r++ {
		tag := fmt.Sprintf("chaos/w%d", r)
		var victims []int
		start := time.Now()
		decs, err := runChaosLedger(cl, tag, opts.TxCount, opts.TxBytes, func() error {
			for k := 0; k < killsIn[r]; k++ {
				time.Sleep(time.Duration(50+rng.Intn(100)) * time.Millisecond)
				victim := rng.Intn(n)
				victims = append(victims, victim)
				if err := cl.Kill(victim); err != nil {
					return err
				}
				if err := cl.Restart(victim); err != nil {
					return fmt.Errorf("restart party %d: %w", victim, err)
				}
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("chaos: %w\n%s", err, cl.Logs())
		}
		if decs[0].Txs != expectTxs {
			return nil, fmt.Errorf("chaos: %s delivered %d txs, want exactly-once %d", tag, decs[0].Txs, expectTxs)
		}
		if decs[0].TxSet != refSets[r] {
			return nil, fmt.Errorf("chaos: %s tx set %s != uninterrupted reference %s", tag, decs[0].TxSet, refSets[r])
		}
		if victims == nil {
			victims = []int{}
		}
		doc.Rounds = append(doc.Rounds, ChaosRound{
			Tag: tag, Txs: decs[0].Txs, TxSet: decs[0].TxSet, Kills: victims,
			FinalSlot: decs[0].FinalSlot, ElapsedMS: time.Since(start).Milliseconds(),
		})
	}

	stats, err := cl.StatsAll()
	if err != nil {
		return nil, fmt.Errorf("chaos: stats: %w", err)
	}
	var restarts int64
	for _, s := range stats {
		if s.SelfMismatches != 0 {
			return nil, fmt.Errorf("chaos: party %d replay diverged: %d self-send mismatches", s.Party, s.SelfMismatches)
		}
		restarts += s.Restarts
		doc.ReplayedRecords += s.ReplayedRecords
		doc.ReplayedFrames += s.ReplayedFrames
		doc.WALCompactions += s.WALCompactions
	}
	doc.Restarts = restarts
	if opts.Kills > 0 && restarts == 0 {
		return nil, fmt.Errorf("chaos: %d kills but no process reported a WAL recovery", opts.Kills)
	}

	if err := cl.Stop(60 * time.Second); err != nil {
		return nil, fmt.Errorf("chaos: stop chaos cluster: %w\n%s", err, cl.Logs())
	}
	return doc, nil
}

// RunChaosBench regenerates the chaos artifact at outPath. With check set,
// it first loads the committed artifact and fails on any drift in the gated
// fields — the informational recovery counters are expected to move.
func RunChaosBench(outPath string, opts ChaosOptions, check bool) error {
	opts.defaults()
	var prev *ChaosDoc
	if check {
		raw, err := os.ReadFile(outPath)
		if err != nil {
			return fmt.Errorf("nodenet: -check needs a committed artifact: %w", err)
		}
		prev = &ChaosDoc{}
		if err := json.Unmarshal(raw, prev); err != nil {
			return fmt.Errorf("nodenet: parse committed %s: %w", outPath, err)
		}
	}
	if opts.BinPath == "" {
		dir, err := os.MkdirTemp("", "chaosbench-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		if opts.BinPath, err = BuildNoded(dir); err != nil {
			return err
		}
	}
	doc, err := RunChaos(opts)
	if err != nil {
		return err
	}
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d rounds, %d kills, %d restarts)\n", outPath, len(doc.Rounds), doc.Kills, doc.Restarts)
	if check {
		if err := diffChaos(prev, doc); err != nil {
			return err
		}
		fmt.Println("gated fields match the committed artifact")
	}
	return nil
}

// diffChaos compares the gated surface of two chaos artifacts. The kill
// schedule is seeded, so victims gate too; recovery counters do not.
func diffChaos(prev, next *ChaosDoc) error {
	if prev.N != next.N || prev.F != next.F || prev.Seed != next.Seed ||
		prev.Kills != next.Kills || prev.TxCount != next.TxCount || prev.TxBytes != next.TxBytes {
		return fmt.Errorf("nodenet: chaos config drifted: committed %+v, regenerated %+v", *prev, *next)
	}
	if len(prev.Rounds) != len(next.Rounds) {
		return fmt.Errorf("nodenet: chaos round count drifted: %d committed, %d regenerated",
			len(prev.Rounds), len(next.Rounds))
	}
	for i := range next.Rounds {
		a, b := prev.Rounds[i], next.Rounds[i]
		if a.Tag != b.Tag || a.Txs != b.Txs || a.TxSet != b.TxSet {
			return fmt.Errorf("nodenet: chaos round %s drifted:\ncommitted   txs=%d set=%s\nregenerated txs=%d set=%s",
				b.Tag, a.Txs, a.TxSet, b.Txs, b.TxSet)
		}
		if fmt.Sprint(a.Kills) != fmt.Sprint(b.Kills) {
			return fmt.Errorf("nodenet: chaos round %s kill schedule drifted: committed %v, regenerated %v",
				b.Tag, a.Kills, b.Kills)
		}
	}
	return nil
}
