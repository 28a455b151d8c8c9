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
// the analytic multiset (Txs == n·TxCount, TxSet == ExpectedTxSet). The
// kill schedule is a function of the seed alone.

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

// ChaosRound is one checked ledger round and the victims killed during
// it, in order.
type ChaosRound struct {
	*WorkloadResult
	Kills []int
}

// ChaosRun is a chaos sweep's rounds and the recovery counters summed
// across parties.
type ChaosRun struct {
	Rounds                                   []ChaosRound
	Restarts, ReplayedFrames, WALCompactions int64
}

// RunChaos runs chaosRounds ledger workloads on a cluster launched from
// opts, with its WAL forced on, while a seeded killer SIGKILLs and
// restarts f parties, spread across the rounds.
func RunChaos(opts Options) (*ChaosRun, error) {
	opts.WAL = true
	cl, err := Launch(opts)
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
	run := &ChaosRun{}
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
		run.Rounds = append(run.Rounds, ChaosRound{WorkloadResult: res, Kills: victims})
	}

	stats, err := cl.StatsAll()
	if err != nil {
		return nil, fmt.Errorf("chaos: stats: %w", err)
	}
	for _, s := range stats {
		if s.SelfMismatches != 0 {
			return nil, fmt.Errorf("chaos: party %d replay diverged: %d self-send mismatches", s.Party, s.SelfMismatches)
		}
		run.Restarts += s.Restarts
		run.ReplayedFrames += s.ReplayedFrames
		run.WALCompactions += s.WALCompactions
	}
	if kills > 0 && run.Restarts == 0 {
		return nil, fmt.Errorf("chaos: %d kills but no process reported a WAL recovery", kills)
	}

	if err := cl.Stop(60 * time.Second); err != nil {
		return nil, fmt.Errorf("chaos: stop cluster: %w\n%s", err, cl.Logs())
	}
	return run, nil
}
