// Integration tests over the experiment runners: each test is a scaled-down
// version of a registry experiment (see README.md), asserting the paper's qualitative
// claims end to end (full stack, fresh cluster per run).
package exp

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core/seeding"
	"repro/internal/core/vba"
	"repro/internal/harness"
	"repro/internal/sim"
)

// TestE1CoinShape: coin costs stay cubic-ish and constant-round, and the
// CKLS02-shape baseline grows strictly faster (Table 1's central claim).
func TestE1CoinShape(t *testing.T) {
	coin4, err := RunCoin(RunSpec{N: 4, F: -1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	coin10, err := RunCoin(RunSpec{N: 10, F: -1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ck4, err := RunBaselineCoin(RunSpec{N: 4, F: -1, Seed: 1}, BaselineCKLS02)
	if err != nil {
		t.Fatal(err)
	}
	ck10, err := RunBaselineCoin(RunSpec{N: 10, F: -1, Seed: 1}, BaselineCKLS02)
	if err != nil {
		t.Fatal(err)
	}
	paperGrowth := float64(coin10.Stats.Bytes) / float64(coin4.Stats.Bytes)
	ckGrowth := float64(ck10.Bytes) / float64(ck4.Bytes)
	if ckGrowth <= paperGrowth {
		t.Fatalf("CKLS02 growth %.2f not above paper growth %.2f", ckGrowth, paperGrowth)
	}
	if coin10.Stats.Rounds > 30 {
		t.Fatalf("coin rounds %d at n=10, want constant (≤30)", coin10.Stats.Rounds)
	}
}

// TestE2ElectionVBA: both terminate with agreement at two sizes.
func TestE2ElectionVBA(t *testing.T) {
	for _, n := range []int{4, 7} {
		el, err := RunElection(RunSpec{N: n, F: -1, Seed: int64(n), Genesis: []byte("e2")})
		if err != nil {
			t.Fatalf("election n=%d: %v", n, err)
		}
		if !el.Agreed {
			t.Fatalf("election disagreement at n=%d", n)
		}
		props := make([][]byte, n)
		for i := range props {
			props[i] = []byte(fmt.Sprintf("ok:%d", i))
		}
		vb, err := RunVBA(RunSpec{N: n, F: -1, Seed: int64(n), Genesis: []byte("e2")},
			props, func(v []byte) bool { return strings.HasPrefix(string(v), "ok:") })
		if err != nil {
			t.Fatalf("vba n=%d: %v", n, err)
		}
		if !vb.Agreed || !strings.HasPrefix(string(vb.Value), "ok:") {
			t.Fatalf("vba outcome bad at n=%d: %+v", n, vb)
		}
	}
}

// TestE3PhaseAccounting: the coin's phase tallies sum to ≤ total and the
// AVSS+Seeding layers dominate (Fig 2's pipeline).
func TestE3PhaseAccounting(t *testing.T) {
	out, err := RunCoin(RunSpec{N: 7, F: -1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, tally := range out.PerPhase {
		sum += tally.Bytes
	}
	if sum > out.Stats.Bytes {
		t.Fatalf("phase bytes %d exceed total %d", sum, out.Stats.Bytes)
	}
	if sum*10 < out.Stats.Bytes*9 {
		t.Fatalf("phases cover only %d of %d bytes", sum, out.Stats.Bytes)
	}
	if out.PerPhase["avss"].Bytes == 0 || out.PerPhase["seeding"].Bytes == 0 {
		t.Fatal("missing phase accounting")
	}
}

// TestE4AgreementRateUnderAdversary: Theorem 3's α bound holds empirically
// under an adversarial delaying scheduler.
func TestE4AgreementRateUnderAdversary(t *testing.T) {
	const trials = 8
	agree := 0
	for tr := 0; tr < trials; tr++ {
		out, err := RunCoin(RunSpec{
			N: 4, F: -1, Seed: int64(tr) * 37,
			Sched: sim.DelayScheduler{Slow: map[int]bool{0: true}, Bias: 0.85},
		})
		if err != nil {
			t.Fatal(err)
		}
		if out.Agreed {
			agree++
		}
	}
	if agree*3 < trials {
		t.Fatalf("agreement rate %d/%d below α = 1/3", agree, trials)
	}
}

// TestE5ElectionNeverDisagrees: agreement across seeds and schedulers.
func TestE5ElectionNeverDisagrees(t *testing.T) {
	for tr := 0; tr < 6; tr++ {
		spec := RunSpec{N: 4, F: -1, Seed: int64(tr) * 71, Genesis: []byte("e5")}
		if tr%2 == 1 {
			spec.Sched = sim.DelayScheduler{Slow: map[int]bool{tr % 4: true}, Bias: 0.8}
		}
		out, err := RunElection(spec)
		if err != nil {
			t.Fatal(err)
		}
		if !out.Agreed {
			t.Fatalf("trial %d: election disagreement", tr)
		}
	}
}

// TestE6ABARoundsConstant: mean rounds small under the paper coin, and the
// private-setup threshold coin gives the same outcome shape.
func TestE6ABARoundsConstant(t *testing.T) {
	for _, kind := range []ABACoinKind{ABATestCoin, ABAThreshCoin} {
		total := 0.0
		const trials = 5
		for tr := 0; tr < trials; tr++ {
			out, err := RunABA(RunSpec{N: 4, F: -1, Seed: int64(tr) * 13, Genesis: []byte("e6")},
				[]byte{0, 1, 1, 0}, kind)
			if err != nil {
				t.Fatal(err)
			}
			if !out.Agreed {
				t.Fatal("ABA disagreement")
			}
			total += out.MeanRound
		}
		if mean := total / trials; mean > 4 {
			t.Fatalf("kind %d: mean rounds %.2f too high", kind, mean)
		}
	}
}

// TestE7ADKGScaling: DKG bytes grow sub-quartically (target Θ(n³)).
func TestE7ADKGScaling(t *testing.T) {
	a4, err := RunADKG(RunSpec{N: 4, F: -1, Seed: 5, Genesis: []byte("e7")})
	if err != nil {
		t.Fatal(err)
	}
	a7, err := RunADKG(RunSpec{N: 7, F: -1, Seed: 5, Genesis: []byte("e7")})
	if err != nil {
		t.Fatal(err)
	}
	if !a4.KeysAgree || !a7.KeysAgree {
		t.Fatal("DKG keys diverged")
	}
	growth := float64(a7.Stats.Bytes) / float64(a4.Stats.Bytes)
	// (7/4)³ ≈ 5.36, (7/4)⁴ ≈ 9.38 — demand clearly below quartic.
	if growth > 9 {
		t.Fatalf("ADKG growth 4→7 = %.2f, looks quartic", growth)
	}
}

// TestE8BeaconEpochs: epochs complete with few attempts and all parties
// agree (checked inside RunBeacon).
func TestE8BeaconEpochs(t *testing.T) {
	out, err := RunBeacon(RunSpec{N: 4, F: -1, Seed: 6, Genesis: []byte("e8")}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Agreed || len(out.Values) != 2 {
		t.Fatalf("beacon outcome: %+v", out)
	}
	if out.MeanAttempt > 6 {
		t.Fatalf("mean attempts %.2f, expected ≈ ≤ 3", out.MeanAttempt)
	}
}

// TestE9E10E11SubprotocolShapes: AVSS ~n², WCS ~n³, Seeding ~n² growth.
func TestE9E10E11SubprotocolShapes(t *testing.T) {
	g := func(f func(RunSpec) (Stats, error)) float64 {
		s4, err := f(RunSpec{N: 4, F: -1, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		s10, err := f(RunSpec{N: 10, F: -1, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		return float64(s10.Bytes) / float64(s4.Bytes)
	}
	avssG := g(func(s RunSpec) (Stats, error) { return RunAVSS(s, 32) })
	wcsG := g(RunWCS)
	seedG := g(RunSeeding)
	// (10/4)² = 6.25, (10/4)³ ≈ 15.6.
	if avssG > 12 {
		t.Fatalf("AVSS growth %.1f beyond quadratic", avssG)
	}
	if seedG > 12 {
		t.Fatalf("Seeding growth %.1f beyond quadratic", seedG)
	}
	if wcsG < avssG {
		t.Fatalf("WCS growth %.1f not above AVSS growth %.1f (should be cubic vs quadratic)", wcsG, avssG)
	}
}

// TestCrashToleranceAcrossStack: every runner completes with f crashes.
func TestCrashToleranceAcrossStack(t *testing.T) {
	spec := RunSpec{N: 4, F: -1, Seed: 8, Crash: 1, Genesis: []byte("crash")}
	if _, err := RunCoin(spec); err != nil {
		t.Fatalf("coin: %v", err)
	}
	if _, err := RunElection(spec); err != nil {
		t.Fatalf("election: %v", err)
	}
	if _, err := RunABA(spec, []byte{1, 0, 1, 0}, ABATestCoin); err != nil {
		t.Fatalf("aba: %v", err)
	}
	props := [][]byte{[]byte("ok:a"), []byte("ok:b"), []byte("ok:c"), []byte("ok:d")}
	if _, err := RunVBA(spec, props, func(v []byte) bool { return strings.HasPrefix(string(v), "ok:") }); err != nil {
		t.Fatalf("vba: %v", err)
	}
	if _, err := RunADKG(spec); err != nil {
		t.Fatalf("adkg: %v", err)
	}
}

// TestAblationWCSBeatsRBCGather (the §5.2 design ablation): the weak core-set
// selection costs fewer rounds than the classical n-RBC gather it replaces,
// and its byte advantage grows with n.
func TestAblationWCSBeatsRBCGather(t *testing.T) {
	w7, err := RunWCS(RunSpec{N: 7, F: -1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	g7, err := RunRBCGather(RunSpec{N: 7, F: -1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if w7.Rounds >= g7.Rounds {
		t.Fatalf("WCS rounds %d not below RBC-gather rounds %d", w7.Rounds, g7.Rounds)
	}
	if w7.Msgs >= g7.Msgs {
		t.Fatalf("WCS messages %d not below RBC-gather %d", w7.Msgs, g7.Msgs)
	}
}

// TestRBCDataPlane: the n-broadcast AVID workload completes, its codec
// counters are wired through Stats, and the systematic fast paths carry
// real traffic (every delivery decodes; every consistency check is
// answered by the (root, value-digest) Merkle-tree cache or a rebuild).
func TestRBCDataPlane(t *testing.T) {
	st, ops, err := RunRBCOps(RunSpec{N: 7, F: -1, Seed: 3}, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if st.RSOps != ops.Ops() {
		t.Fatalf("Stats.RSOps=%d diverges from codec counters %d", st.RSOps, ops.Ops())
	}
	// 7 broadcasts: each does ≥ 1 dispersal encode and 7 decodes, and each
	// of its 7 per-party consistency checks is served by the parity-dedup
	// tree cache (seeded at dispersal) or, on a miss, a full rebuild.
	if ops.Encodes < 7 || ops.Decodes < 7*7 {
		t.Fatalf("codec op counts too low for 7 broadcasts: %+v", ops)
	}
	if ops.TreeHits+ops.TreeBuilds < 7*7 {
		t.Fatalf("consistency checks unaccounted for (want ≥ 49 tree hits+builds): %+v", ops)
	}
	if ops.TreeHits == 0 {
		t.Fatalf("parity-dedup cache never hit across the cluster: %+v", ops)
	}
	if ops.SystematicDecodes > ops.Decodes {
		t.Fatalf("systematic decodes exceed decodes: %+v", ops)
	}
	if st.Bytes == 0 || st.Msgs == 0 {
		t.Fatal("no traffic recorded")
	}
}

// TestRBCDataPlaneTolerates crashes: with f crashed senders the remaining
// honest broadcasts still complete.
func TestRBCDataPlaneCrashTolerance(t *testing.T) {
	st, err := RunRBC(RunSpec{N: 7, F: -1, Seed: 4, Crash: 2}, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if st.RSOps == 0 {
		t.Fatal("RSOps not recorded")
	}
}

// TestSeedingScriptVerifyDedupBudget extends the ADKG dedup guard to the
// Seeding leader path: the leader must verify each contributor's unit
// script cold at receipt (at most n of them, at least 2f+1), and then ride
// those verdicts compositionally for its aggregate — zero cold aggregate
// verifications cluster-wide, with Composed booking the byte-equality fast
// path instead.
func TestSeedingScriptVerifyDedupBudget(t *testing.T) {
	const n = 7
	c, err := harness.NewCluster(n, -1, 1, harness.Options{})
	if err != nil {
		t.Fatal(err)
	}
	done := make(map[int]bool)
	c.EachHonest(func(i int) {
		s := seeding.New(c.Net.Node(i), "sd", c.Keys[i], 0, func([seeding.SeedSize]byte) {
			done[i] = true
		})
		s.Start()
	})
	if err := c.Net.Run(sim.DefaultDeliveryBudget, func() bool { return len(done) == n }); err != nil {
		t.Fatal(err)
	}
	ss := c.ScriptVerifyStats()
	if ss.Verifies > n {
		t.Fatalf("seeding performed %d cold script verifies, budget %d (unit receipts only) — leader composition regressed",
			ss.Verifies, n)
	}
	if ss.Verifies < int64(2*c.F+1) {
		t.Fatalf("only %d cold verifies — the leader cannot have checked a 2f+1 quorum", ss.Verifies)
	}
	if ss.Composed < 1 {
		t.Fatal("aggregate was never validated compositionally")
	}
}

// RunVBA executes one validated BA; proposals[i] is party i's input, and
// valid is the external predicate Q.
func RunVBA(spec RunSpec, proposals [][]byte, valid vba.Predicate) (VBAOutcome, error) {
	inst, err := run(spec, "vba", "vba", vbaInputs(proposals, valid))
	if err != nil {
		return VBAOutcome{}, err
	}
	return VBAInstance{inst}.Outcome(), nil
}
