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
// layout legally diverges from an uninterrupted run. So each round is a
// ledger Workload, whose own check gates exactly-once delivery against
// the analytic multiset (Txs == n·TxCount, TxSet == ExpectedTxSet).
//
// BENCH_chaos.json commits only this deterministic surface; restart and
// replay counters are recorded for inspection, never compared.

import (
	"fmt"
	"math/rand"
	"time"
)

// chaosSeedSalt decorrelates the kill schedule from the protocol seed.
const chaosSeedSalt = 0x0c4a05

// chaosRounds ledger workloads run back to back, each shaped like the
// registered ledger workload.
const chaosRounds = 2

// ChaosOptions shapes one chaos run. The run makes F kill/restart cycles.
type ChaosOptions struct {
	N, F    int // F < 0 selects floor((n-1)/3), like Options
	Seed    int64
	BinPath string // "" = build cmd/noded into a temp dir
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

// gated is the part of the document a regeneration must reproduce: the
// config, each round's delivered multiset, and the seeded kill schedule.
func (d *ChaosDoc) gated() any {
	g := *d
	g.Restarts, g.ReplayedRecords, g.ReplayedFrames, g.WALCompactions = 0, 0, 0, 0
	g.Rounds = make([]ChaosRound, len(d.Rounds))
	for i, r := range d.Rounds {
		r.FinalSlot, r.ElapsedMS = 0, 0
		g.Rounds[i] = r
	}
	return g
}

// RunChaos runs chaosRounds ledger workloads on a WAL-backed cluster while
// a seeded killer SIGKILLs and restarts f parties, spread across the
// rounds, and returns the gated outcome.
func RunChaos(opts ChaosOptions) (*ChaosDoc, error) {
	cl, err := Launch(Options{N: opts.N, F: opts.F, Seed: opts.Seed, BinPath: opts.BinPath, WAL: true})
	if err != nil {
		return nil, fmt.Errorf("chaos: launch cluster: %w", err)
	}
	defer cl.Close()
	n, kills := cl.N, cl.F

	rng := rand.New(rand.NewSource(opts.Seed ^ chaosSeedSalt))
	// Spread the kill budget across rounds, front-loaded.
	killsIn := make([]int, chaosRounds)
	for k := 0; k < kills; k++ {
		killsIn[k%chaosRounds]++
	}

	ledger, err := WorkloadByName("ledger")
	if err != nil {
		return nil, err
	}
	doc := &ChaosDoc{
		N: n, F: cl.F, Seed: opts.Seed, Kills: kills,
		TxCount: ledger.TxCount, TxBytes: ledger.TxBytes,
	}
	for r := 0; r < chaosRounds; r++ {
		w := ledger
		w.Name = fmt.Sprintf("chaos-w%d", r)
		victims := []int{}
		w.Mid = func() error {
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
		}
		res, err := w.Run(cl)
		if err != nil {
			return nil, fmt.Errorf("chaos: %w\n%s", err, cl.Logs())
		}
		d := res.Decisions[0]
		doc.Rounds = append(doc.Rounds, ChaosRound{
			Tag: res.Tag, Txs: d.Txs, TxSet: d.TxSet, Kills: victims,
			FinalSlot: d.FinalSlot, ElapsedMS: res.ElapsedMS,
		})
	}

	stats, err := cl.StatsAll()
	if err != nil {
		return nil, fmt.Errorf("chaos: stats: %w", err)
	}
	for _, s := range stats {
		if s.SelfMismatches != 0 {
			return nil, fmt.Errorf("chaos: party %d replay diverged: %d self-send mismatches", s.Party, s.SelfMismatches)
		}
		doc.Restarts += s.Restarts
		doc.ReplayedRecords += s.ReplayedRecords
		doc.ReplayedFrames += s.ReplayedFrames
		doc.WALCompactions += s.WALCompactions
	}
	if kills > 0 && doc.Restarts == 0 {
		return nil, fmt.Errorf("chaos: %d kills but no process reported a WAL recovery", kills)
	}

	if err := cl.Stop(60 * time.Second); err != nil {
		return nil, fmt.Errorf("chaos: stop cluster: %w\n%s", err, cl.Logs())
	}
	return doc, nil
}

// RunChaosBench regenerates the chaos artifact at outPath; with check set
// it fails on any drift in the gated part of the committed one.
func RunChaosBench(outPath string, opts ChaosOptions, check bool) error {
	return regenerate(outPath, opts.BinPath, check, func(bin string) (*ChaosDoc, error) {
		opts.BinPath = bin
		return RunChaos(opts)
	})
}
