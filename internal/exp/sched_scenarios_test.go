// Scenario tests for the adversarial-scheduler suite at the protocol level:
// the paper's liveness and agreement guarantees must survive partitions,
// worst-case reordering and targeted sub-protocol starvation, and every
// scheduled run must replay bit-for-bit under a fixed seed.
package exp

import (
	"errors"
	"reflect"
	"slices"
	"testing"

	"repro/internal/sim"
)

// TestPartitionThenHealCoinLiveness: isolating f parties for a bounded
// window must not cost coin termination, and the healed run still agrees
// with probability ≥ α (empirically: most trials).
func TestPartitionThenHealCoinLiveness(t *testing.T) {
	agree := 0
	const trials = 4
	for tr := 0; tr < trials; tr++ {
		out, err := RunCoin(RunSpec{
			N: 4, F: -1, Seed: int64(100 + tr*53),
			Sched: sim.NewPartition(map[int]bool{3: true}, 240, nil),
			Steps: 5_000_000,
		})
		if err != nil {
			t.Fatalf("trial %d: %v", tr, err)
		}
		if out.Agreed {
			agree++
		}
	}
	if agree*3 < trials {
		t.Fatalf("agreement %d/%d below α = 1/3 after partition heal", agree, trials)
	}
}

// TestPartitionThenHealABALiveness: ABA decides despite an early partition.
func TestPartitionThenHealABALiveness(t *testing.T) {
	out, err := RunABA(RunSpec{
		N: 4, F: -1, Seed: 7, Genesis: []byte("part"),
		Sched: sim.NewPartition(map[int]bool{0: true}, 300, nil),
		Steps: 5_000_000,
	}, []byte{0, 1, 1, 0}, ABAPaperCoin)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Agreed {
		t.Fatal("ABA disagreement after partition heal")
	}
}

// TestTargetedStarvationTerminates: starving the seeding (coin) and coin
// (ABA) paths pushes them to the causal frontier but cannot block
// termination within an explicit step budget.
func TestTargetedStarvationTerminates(t *testing.T) {
	if _, err := RunCoin(RunSpec{
		N: 4, F: -1, Seed: 11,
		Sched: sim.TargetedInstanceScheduler{Prefix: "coin/sd/", Bias: 0.95},
		Steps: 2_000_000,
	}); err != nil {
		t.Fatalf("coin with starved seeding: %v", err)
	}
	if _, err := RunABA(RunSpec{
		N: 4, F: -1, Seed: 11, Genesis: []byte("starve"),
		Sched: sim.TargetedInstanceScheduler{Prefix: "aba/c", Bias: 0.95},
		Steps: 2_000_000,
	}, []byte{1, 0, 1, 0}, ABAPaperCoin); err != nil {
		t.Fatalf("aba with starved coins: %v", err)
	}
}

// TestLIFOAndComposeTerminate: worst-case reordering and a phased composite
// adversary preserve VBA/ABA termination and agreement, and LIFO cannot
// stall the Table 1 baseline coins (reveals that outrun their script, a
// core fixed after every reconstruction finished).
func TestLIFOAndComposeTerminate(t *testing.T) {
	for _, n := range []int{4, 7} {
		for _, kind := range []BaselineKind{BaselineCKLS02, BaselineAJM21} {
			if _, err := RunBaselineCoin(RunSpec{
				N: n, F: -1, Seed: 13,
				Sched: sim.LIFOScheduler(), Steps: 5_000_000,
			}, kind); err != nil {
				t.Fatalf("baseline %d at n=%d under LIFO: %v", kind, n, err)
			}
		}
	}
	out, err := RunABA(RunSpec{
		N: 4, F: -1, Seed: 13, Genesis: []byte("lifo"),
		Sched: sim.LIFOScheduler(), Steps: 5_000_000,
	}, []byte{0, 1, 0, 1}, ABAPaperCoin)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Agreed {
		t.Fatal("ABA disagreement under LIFO")
	}
	vb, err := vbaRun(RunSpec{
		N: 4, F: -1, Seed: 13, Genesis: []byte("lifo"),
		Sched: composeSched(4, 13), Steps: 5_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if vb.Extra["agreed"] != 1 {
		t.Fatal("VBA disagreement under composed adversary")
	}
}

// TestElectionTerminatesUnderLIFO: regression for the PR 1 adversary-suite
// finding (standalone Election stalled under pure LIFO). Root cause was an
// activation race in the embedded ABA, not the suspected seed path: under
// LIFO every round-1 EST1/AUX1 arrives before a party derives its ballot,
// and ABA.Start never re-evaluated the buffered round state, so the run
// went quiescent with no party proposed. ABA.Start now replays
// tryPropose/tryCoin after activation.
func TestElectionTerminatesUnderLIFO(t *testing.T) {
	for trial := 0; trial < 2; trial++ {
		out, err := RunElection(RunSpec{
			N: 4, F: -1, Seed: TrialSeed("e2/election", 1, trial),
			Sched: sim.LIFOScheduler(), Steps: 5_000_000,
		})
		if err != nil {
			t.Fatalf("trial %d: election under LIFO: %v", trial, err)
		}
		if !out.Agreed {
			t.Fatalf("trial %d: election disagreement under LIFO", trial)
		}
	}
}

// TestStallErrorNamesMissingParties: a budget-exhausted run surfaces a
// structured *sim.StallError annotated with the parties the session layer
// was still awaiting — LIFO-class stalls are diagnosable, not a silent
// budget burn.
func TestStallErrorNamesMissingParties(t *testing.T) {
	_, err := RunCoin(RunSpec{N: 4, F: -1, Seed: 3, Steps: 5})
	if err == nil {
		t.Fatal("a 5-delivery budget cannot complete a coin")
	}
	var stall *sim.StallError
	if !errors.As(err, &stall) {
		t.Fatalf("want *sim.StallError, got %T: %v", err, err)
	}
	if stall.Drained || stall.Budget != 5 {
		t.Fatalf("want budget-exhaustion stall with budget 5, got %+v", stall)
	}
	if len(stall.Missing) != 4 {
		t.Fatalf("all 4 parties should be missing, got %v", stall.Missing)
	}
}

// TestSubprotocolStallNamesMissingParties: the hand-wired sub-protocol
// runners go through the same tracker, so their stalls name the missing
// parties too.
func TestSubprotocolStallNamesMissingParties(t *testing.T) {
	avss := func(s RunSpec) (Stats, error) { return RunAVSS(s, 32) }
	for i, run := range []func(RunSpec) (Stats, error){avss, RunWCS, RunSeeding, RunRBCGather} {
		_, err := run(RunSpec{N: 4, F: -1, Seed: 3, Steps: 5})
		var stall *sim.StallError
		if !errors.As(err, &stall) {
			t.Fatalf("runner %d: want *sim.StallError, got %T: %v", i, err, err)
		}
		if !slices.Equal(stall.Missing, []int{0, 1, 2, 3}) {
			t.Fatalf("runner %d: want all 4 parties missing, got %v", i, stall.Missing)
		}
	}
}

// TestAdvSpecsRunAndReplay: every registered adversarial spec executes at
// its smallest n and replays bit-identically — the registry-level
// determinism guarantee the matrix engine relies on.
func TestAdvSpecsRunAndReplay(t *testing.T) {
	specs, err := Select("adv")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) == 0 {
		t.Fatal("no adversarial specs registered")
	}
	for _, s := range specs {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			a, err := RunNamed(s.Name, s.Ns[0], 0, 5)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			b, err := RunNamed(s.Name, s.Ns[0], 0, 5)
			if err != nil {
				t.Fatalf("replay: %v", err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("replay diverged:\n%+v\nvs\n%+v", a, b)
			}
		})
	}
}

// TestElectionBotsVotesDefault: the all-⊥ heavy-corruption scenario behind
// the adv/election-bots spec — every party's speculative max forced to ⊥ —
// must terminate by voting 0 and electing the default leader at every
// honest party (⊥ RBC outputs count toward the n−f vote threshold).
func TestElectionBotsVotesDefault(t *testing.T) {
	for _, n := range []int{4, 7} {
		out, err := RunElectionBots(RunSpec{N: n, F: -1, Seed: int64(40 + n), Genesis: []byte("bots")})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !out.Agreed {
			t.Fatalf("n=%d: honest parties disagreed", n)
		}
		if !out.ByDefault || out.Leader != 0 {
			t.Fatalf("n=%d: got leader %d (default=%v), want default leader 0", n, out.Leader, out.ByDefault)
		}
	}
}

// TestVBADedupFactor: the registry's dedup spec must show the verifier
// cache cutting cold VRF verifications by at least the 2× acceptance floor
// (measured: ~9–15×).
func TestVBADedupFactor(t *testing.T) {
	out, err := RunNamed("dedup/vba-verifies", 4, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if out.Extra["agreed"] != 1 {
		t.Fatal("dedup VBA disagreed")
	}
	if x := out.Extra["dedup-x"]; x < 2 {
		t.Fatalf("dedup factor %.2f below the 2× floor (lookups %.0f, verifies %.0f)",
			x, out.Extra["vrf-lookups"], out.Extra["vrf-verifies"])
	}
}
