package exp

// Built-in experiment specs: every EXPERIMENTS row (E1–E11), the Table 1
// baselines, the design ablations, and the adversarial-scheduler scenario
// suite, all as registry entries executed by the matrix engine.

import (
	"fmt"
	"strings"

	"repro/internal/harness"
	"repro/internal/sim"
)

// Default sweeps: the full Table 1 n-range for scaling rows, a small range
// for statistical/adversarial rows where trials, not n, carry the signal.
var (
	sweepNs = []int{4, 7, 10, 13}
	smallNs = []int{4, 7}
)

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func statsRun(f func(RunSpec) (Stats, error)) func(RunSpec) (Outcome, error) {
	return func(rs RunSpec) (Outcome, error) {
		st, err := f(rs)
		return Outcome{Stats: st}, err
	}
}

func coinRun(rs RunSpec) (Outcome, error) {
	out, err := RunCoin(rs)
	if err != nil {
		return Outcome{}, err
	}
	extra := map[string]float64{
		"agreed":  b2f(out.Agreed),
		"max-set": b2f(out.MaxIsSet),
	}
	for ph, t := range out.PerPhase {
		extra["phase-bytes/"+ph] = float64(t.Bytes)
	}
	return Outcome{Stats: out.Stats, Extra: extra}, nil
}

func abaRun(kind ABACoinKind) func(RunSpec) (Outcome, error) {
	return func(rs RunSpec) (Outcome, error) {
		inputs := make([]byte, rs.N)
		for i := range inputs {
			inputs[i] = byte(i % 2) // split inputs: the coin-dependent case
		}
		out, err := RunABA(rs, inputs, kind)
		if err != nil {
			return Outcome{}, err
		}
		return Outcome{Stats: out.Stats, Extra: map[string]float64{
			"agreed":      b2f(out.Agreed),
			"mean-round":  out.MeanRound,
			"max-round":   float64(out.MaxRound),
			"decided-bit": float64(out.Bit),
		}}, nil
	}
}

// electionRun adapts an election runner — RunElection, or RunElectionBots
// with every speculative max forced to ⊥.
func electionRun(elect func(RunSpec) (ElectionOutcome, error)) func(RunSpec) (Outcome, error) {
	return func(rs RunSpec) (Outcome, error) {
		out, err := elect(rs)
		if err != nil {
			return Outcome{}, err
		}
		return Outcome{Stats: out.Stats, Extra: map[string]float64{
			"agreed":     b2f(out.Agreed),
			"by-default": b2f(out.ByDefault),
			"leader":     float64(out.Leader),
		}}, nil
	}
}

// specVBA runs the registry's VBA workload — distinct valid proposals — and
// returns the finished instance.
func specVBA(rs RunSpec) (*Instance, error) {
	props := make([][]byte, rs.N)
	for i := range props {
		props[i] = okProposal(i)
	}
	return run(rs, "vba", "vba", vbaInputs(props, okPrefixed))
}

func vbaRun(rs RunSpec) (Outcome, error) {
	inst, err := specVBA(rs)
	if err != nil {
		return Outcome{}, err
	}
	out := VBAInstance{inst}.Outcome()
	return Outcome{Stats: out.Stats, Extra: map[string]float64{
		"agreed":   b2f(out.Agreed),
		"max-view": float64(out.MaxView),
	}}, nil
}

// vbaDedupRun is vbaRun plus the verifier-cache counters of the cluster it
// ran on: vrf-lookups is the VRF-check demand the protocols issued,
// vrf-verifies the cold P-256 work actually performed, dedup-x their ratio
// (≥ 2 is the headline).
func vbaDedupRun(rs RunSpec) (Outcome, error) {
	inst, err := specVBA(rs)
	if err != nil {
		return Outcome{}, err
	}
	out, vs := VBAInstance{inst}.Outcome(), inst.t.c.VerifyStats()
	dedup := 0.0
	if vs.Verifies > 0 {
		dedup = float64(vs.Lookups) / float64(vs.Verifies)
	}
	return Outcome{Stats: out.Stats, Extra: map[string]float64{
		"agreed":       b2f(out.Agreed),
		"vrf-lookups":  float64(vs.Lookups),
		"vrf-verifies": float64(vs.Verifies),
		"dedup-x":      dedup,
	}}, nil
}

func adkgRun(rs RunSpec) (Outcome, error) {
	out, err := RunADKG(rs)
	if err != nil {
		return Outcome{}, err
	}
	return Outcome{Stats: out.Stats, Extra: map[string]float64{
		"keys-agree":   b2f(out.KeysAgree),
		"contributors": float64(out.Contributors),
	}}, nil
}

// adkgDedupRun is adkgRun plus the script verifier-cache counters of the
// cluster it ran on: script-lookups is the PVSS script-check demand the
// ADKG issued (receipt path + VBA external-validity predicate),
// script-verifies the cold multi-pairing work actually performed, dedup-x
// their ratio (≥ n is the headline — the receipt path alone demands n
// checks per party; without the memo layer every VBA stage re-evaluates
// the aggregate predicate per sender, O(n²) script verifications per DKG).
func adkgDedupRun(rs RunSpec) (Outcome, error) {
	inst, err := run(rs, "adkg", "dkg", nil)
	if err != nil {
		return Outcome{}, err
	}
	out, ss := ADKGInstance{inst}.Outcome(), inst.t.c.ScriptVerifyStats()
	dedup := 0.0
	if ss.Verifies > 0 {
		dedup = float64(ss.Lookups) / float64(ss.Verifies)
	}
	return Outcome{Stats: out.Stats, Extra: map[string]float64{
		"keys-agree":      b2f(out.KeysAgree),
		"script-lookups":  float64(ss.Lookups),
		"script-verifies": float64(ss.Verifies),
		"script-composed": float64(ss.Composed),
		"dedup-x":         dedup,
	}}, nil
}

// rbcRun sweeps the AVID data plane (n broadcasts of a fixed payload).
func rbcRun(payload int) func(RunSpec) (Outcome, error) {
	return statsRun(func(rs RunSpec) (Stats, error) { return RunRBC(rs, payload) })
}

// rbcOpsRun is rbcRun plus the Reed–Solomon codec counters: rs-encodes and
// rs-decodes are the codec operations the broadcasts drove, rs-systematic
// the decodes answered by the zero-field-work concatenation fast path, and
// rs-field-muls the parity dot-product multiplications actually spent.
// Basis/codec cache-build counts are process-history-dependent (the caches
// are package-wide by design), so runs feeding a committed artifact execute
// with one worker — see the CI bench-artifact job.
func rbcOpsRun(spec RunSpec) (Outcome, error) {
	st, ops, err := RunRBCOps(spec, 4096)
	if err != nil {
		return Outcome{}, err
	}
	return Outcome{Stats: st, Extra: map[string]float64{
		"rs-encodes":        float64(ops.Encodes),
		"rs-decodes":        float64(ops.Decodes),
		"rs-systematic":     float64(ops.SystematicDecodes),
		"rs-parity-symbols": float64(ops.ParitySymbols),
		"rs-field-muls":     float64(ops.FieldMuls),
		// AVID parity-recompute dedup: root verifications answered by the
		// (root, value-digest) Merkle cache vs full re-encode rebuilds.
		"rs-tree-hits":   float64(ops.TreeHits),
		"rs-tree-builds": float64(ops.TreeBuilds),
	}}, nil
}

// abcRun sweeps the atomic-broadcast ledger under a fixed workload shape;
// every extra is a deterministic function of the seeded run, so the abc
// specs feed the committed, diff-gated BENCH_abc.json.
func abcRun(cfg ABCConfig) func(RunSpec) (Outcome, error) {
	return func(rs RunSpec) (Outcome, error) {
		out, err := RunABC(rs, cfg)
		if err != nil {
			return Outcome{}, err
		}
		return Outcome{Stats: out.Stats, Extra: map[string]float64{
			"agreed":          b2f(out.Agreed),
			"slots":           float64(out.Slots),
			"txs":             float64(out.Txs),
			"tx-per-kstep":    out.TxPerKStep,
			"tx-per-round":    out.TxPerRound,
			"lat-rounds-mean": out.LatMeanRounds,
			"lat-rounds-p95":  out.LatP95Rounds,
			"occupancy":       out.Occupancy,
		}}, nil
	}
}

func beaconRun(epochs int) func(RunSpec) (Outcome, error) {
	return func(rs RunSpec) (Outcome, error) {
		out, err := RunBeacon(rs, epochs)
		if err != nil {
			return Outcome{}, err
		}
		return Outcome{Stats: out.Stats, Extra: map[string]float64{
			"agreed":        b2f(out.Agreed),
			"mean-attempts": out.MeanAttempt,
		}}, nil
	}
}

func kms20Run(bootstrap bool) func(RunSpec) (Outcome, error) {
	return func(rs RunSpec) (Outcome, error) {
		out, err := RunKMS20(rs)
		if err != nil {
			return Outcome{}, err
		}
		if bootstrap {
			return Outcome{Stats: out.Bootstrap}, nil
		}
		return Outcome{Stats: out.PerCoin}, nil
	}
}

// Adversarial scheduler factories. Parameters scale with n so the adversary
// stays meaningful across the sweep, and every factory builds fresh state
// per run (partition and compose are stateful).

func partitionSched(n int, _ int64) sim.Scheduler {
	// Isolate the top f parties for ~60 picks per party, then heal fully.
	return sim.NewPartition(lastF(n), int64(60*n), nil)
}

func targetedSched(prefix string, bias float64) SchedFactory {
	return func(int, int64) sim.Scheduler {
		return sim.TargetedInstanceScheduler{Prefix: prefix, Bias: bias}
	}
}

func composeSched(n int, _ int64) sim.Scheduler {
	return sim.Compose(
		sim.Phase{Steps: int64(40 * n), Sched: sim.LIFOScheduler()},
		sim.Phase{Steps: int64(40 * n), Sched: sim.TargetedInstanceScheduler{Prefix: "vba/el", Bias: 0.95}},
		sim.Phase{}, // random for the rest of the run
	)
}

func lifoSched(int, int64) sim.Scheduler { return sim.LIFOScheduler() }

func lastF(n int) map[int]bool {
	f := (n - 1) / 3
	m := make(map[int]bool, f)
	for i := n - f; i < n; i++ {
		m[i] = true
	}
	return m
}

func delaySched(n int, _ int64) sim.Scheduler {
	return sim.DelayScheduler{Slow: lastF(n), Bias: 0.85}
}

// NamedSched resolves a scheduler name into the same factories the scenario
// specs use, so a `benchtable -sched partition` run reproduces exactly the
// adversary behind adv/coin-partition. Recognized: random, fifo, lifo,
// delay, partition, targeted:<inst-prefix>.
func NamedSched(name string) (SchedFactory, error) {
	switch {
	case name == "random":
		return func(int, int64) sim.Scheduler { return sim.RandomScheduler() }, nil
	case name == "fifo":
		return func(int, int64) sim.Scheduler { return sim.FIFOScheduler() }, nil
	case name == "lifo":
		return lifoSched, nil
	case name == "delay":
		return delaySched, nil
	case name == "partition":
		return partitionSched, nil
	case strings.HasPrefix(name, "targeted:"):
		prefix := strings.TrimPrefix(name, "targeted:")
		if prefix == "" {
			return nil, fmt.Errorf("exp: targeted scheduler needs an instance prefix, e.g. targeted:coin/sd/")
		}
		return targetedSched(prefix, 0.95), nil
	default:
		return nil, fmt.Errorf("exp: unknown scheduler %q", name)
	}
}

func init() {
	// E1 / Table 1 — common coin column.
	Register(Spec{
		Name: "e1/coin-pki", Group: "e1", Tags: []string{"table1"},
		Title: "this paper (Coin, PKI)", Claim: "Θ(λn³)",
		Ns: sweepNs, Trials: 3, Run: coinRun,
	})
	Register(Spec{
		Name: "e1/coin-genesis", Group: "e1", Tags: []string{"table1"},
		Title: "this paper (Coin, 1-time rnd)", Claim: "Θ(λn³)",
		Ns: sweepNs, Trials: 3, Genesis: []byte("benchtable"), Run: coinRun,
	})
	Register(Spec{
		Name: "e1/ckls02", Group: "e1", Tags: []string{"table1"},
		Title: "CKLS02-shape", Claim: "Θ(λn⁴)",
		Ns: sweepNs, Trials: 3,
		Run: statsRun(func(rs RunSpec) (Stats, error) { return RunBaselineCoin(rs, BaselineCKLS02) }),
	})
	Register(Spec{
		Name: "e1/ajm21", Group: "e1", Tags: []string{"table1"},
		Title: "AJM+21-shape", Claim: "Θ(λn³·log n)",
		Ns: sweepNs, Trials: 3,
		Run: statsRun(func(rs RunSpec) (Stats, error) { return RunBaselineCoin(rs, BaselineAJM21) }),
	})
	Register(Spec{
		Name: "e1/kms20-bootstrap", Group: "e1", Tags: []string{"table1"},
		Title: "KMS20-shape bootstrap", Claim: "Θ(n) rounds",
		Ns: sweepNs, Trials: 3, Run: kms20Run(true),
	})
	Register(Spec{
		Name: "e1/kms20-percoin", Group: "e1", Tags: []string{"table1"},
		Title: "KMS20-shape per-coin", Claim: "Θ(λn²)",
		Ns: sweepNs, Trials: 3, Run: kms20Run(false),
	})
	Register(Spec{
		Name: "e1/threshcoin", Group: "e1", Tags: []string{"table1"},
		Title: "CKS00 threshold (private!)", Claim: "Θ(λn²)",
		Ns: sweepNs, Trials: 3,
		Run: statsRun(func(rs RunSpec) (Stats, error) { return RunBaselineCoin(rs, BaselineThresh) }),
	})

	// E2 / Table 1 — Election and VBA column.
	Register(Spec{
		Name: "e2/election", Group: "e2", Tags: []string{"table1"},
		Title: "Election (this paper)", Claim: "Θ(λn³)",
		Ns: sweepNs, Trials: 3, Run: electionRun(RunElection),
	})
	Register(Spec{
		Name: "e2/vba", Group: "e2", Tags: []string{"table1"},
		Title: "VBA (this paper)", Claim: "Θ(λn³)",
		Ns: sweepNs, Trials: 3, Run: vbaRun,
	})

	// E3 / Fig 2 — coin phase pipeline (per-phase bytes ride in Extra).
	Register(Spec{
		Name: "e3/coin-phases", Group: "e3",
		Title: "Coin phase breakdown", Claim: "AVSS+Seeding dominate",
		Ns: []int{7}, Trials: 3, Run: coinRun,
	})

	// E4 / Thm 3 — coin agreement rate under adversarial delay.
	Register(Spec{
		Name: "e4/coin-agreement", Group: "e4",
		Title: "Coin agreement (random sched)", Claim: "α ≥ 1/3",
		Ns: []int{4}, Trials: 10, Run: coinRun,
	})
	Register(Spec{
		Name: "e4/coin-agreement-delay", Group: "e4",
		Title: "Coin agreement (delay adversary)", Claim: "α ≥ 1/3",
		Ns: []int{4}, Trials: 10, Sched: delaySched, Run: coinRun,
	})

	// E5 / Thm 5 — election never disagrees, few default fallbacks.
	Register(Spec{
		Name: "e5/election-agreement", Group: "e5",
		Title: "Election agreement (delay adversary)", Claim: "perfect agreement",
		Ns: []int{4}, Trials: 10, Genesis: []byte("e5"), Sched: delaySched, Run: electionRun(RunElection),
	})

	// E6 / Thm 4 — ABA rounds-to-decide by coin type.
	Register(Spec{
		Name: "e6/aba-paper", Group: "e6",
		Title: "ABA, paper coin", Claim: "E[rounds] = O(1)",
		Ns: smallNs, Trials: 5, Genesis: []byte("e6"), Run: abaRun(ABAPaperCoin),
	})
	Register(Spec{
		Name: "e6/aba-testcoin", Group: "e6",
		Title: "ABA, perfect test coin", Claim: "E[rounds] = O(1)",
		Ns: smallNs, Trials: 5, Genesis: []byte("e6"), Run: abaRun(ABATestCoin),
	})
	Register(Spec{
		Name: "e6/aba-threshcoin", Group: "e6",
		Title: "ABA, threshold coin (setup)", Claim: "E[rounds] = O(1)",
		Ns: smallNs, Trials: 5, Genesis: []byte("e6"), Run: abaRun(ABAThreshCoin),
	})

	// E7–E8 / §7.3 applications. The sweeps reach n=16 since the batched
	// multi-pairing verifier + per-cluster script memo made per-party PVSS
	// work near-linear (the receipt path and the VBA predicate used to pay
	// O(n²) script verifications each, pinning these specs to small n).
	Register(Spec{
		Name: "e7/adkg", Group: "e7",
		Title: "ADKG (this paper's VBA)", Claim: "Θ(λn³)",
		Ns: []int{4, 7, 16}, Trials: 2, Genesis: []byte("e7"), Run: adkgRun,
	})
	Register(Spec{
		Name: "e8/beacon", Group: "e8",
		Title: "DKG-free beacon (2 epochs)", Claim: "≤ 1/α attempts/epoch",
		Ns: []int{4, 7, 16}, Trials: 3, Genesis: []byte("e8"), Run: beaconRun(2),
	})

	// E9–E11 / sub-protocols.
	Register(Spec{
		Name: "e9/avss", Group: "e9",
		Title: "AVSS (λ-bit secret)", Claim: "Θ(λn²)",
		Ns: sweepNs, Trials: 3,
		Run: statsRun(func(rs RunSpec) (Stats, error) { return RunAVSS(rs, 32) }),
	})
	Register(Spec{
		Name: "e10/wcs", Group: "e10",
		Title: "WCS", Claim: "Θ(λn³), 3 rounds",
		Ns: sweepNs, Trials: 3, Run: statsRun(RunWCS),
	})
	Register(Spec{
		Name: "e11/seeding", Group: "e11",
		Title: "Seeding", Claim: "Θ(λn²)",
		Ns: sweepNs, Trials: 3, Run: statsRun(RunSeeding),
	})

	// RBC data plane: the AVID broadcast's erasure-coding path, swept to
	// n=16 now that the cached-basis systematic codec removed the
	// per-column interpolation (encode reuses the source chunks verbatim;
	// decode from the k systematic chunks is pure concatenation).
	Register(Spec{
		Name: "rbc/avid", Group: "rbc", Tags: []string{"rbc"},
		Title: "n AVID broadcasts (4 KiB)", Claim: "Θ(n·|m| + λn²·log n)",
		Ns: []int{4, 7, 16}, Trials: 2, Run: rbcRun(4096),
	})

	// Atomic broadcast throughput: the BKR parallel-broadcast common-subset
	// engine on one workload shape (64-byte transactions, fixed slot horizon)
	// swept over two batch sizes; abc/saturate keeps every slot of an n=16
	// run full at pipeline depth 3.
	Register(Spec{
		Name: "abc/pipe-b256", Group: "abc", Tags: []string{"ledger"},
		Title: "ACS engine, 256 B batches", Claim: "≥ n−f batches/slot",
		Ns: []int{4, 7, 16}, Trials: 2, Genesis: []byte("abc"),
		Run: abcRun(ABCConfig{Slots: 4, BatchBytes: 256, TxBytes: 64, TxPerParty: 16}),
	})
	Register(Spec{
		Name: "abc/pipe-b1k", Group: "abc", Tags: []string{"ledger"},
		Title: "ACS engine, 1 KiB batches", Claim: "≥ n−f batches/slot",
		Ns: []int{4, 7, 16}, Trials: 2, Genesis: []byte("abc"),
		Run: abcRun(ABCConfig{Slots: 4, BatchBytes: 1024, TxBytes: 64, TxPerParty: 64}),
	})
	Register(Spec{
		Name: "abc/saturate", Group: "abc", Tags: []string{"ledger"},
		Title: "ACS engine saturated, n=16", Claim: "every slot full",
		Ns: []int{16}, Trials: 2, Genesis: []byte("abc"),
		Run: abcRun(ABCConfig{Slots: 4, BatchBytes: 1024, TxBytes: 64, TxPerParty: 64, MaxInFlight: 3}),
	})

	// Design ablations.
	Register(Spec{
		Name: "ablation/rbc-gather", Group: "ablation",
		Title: "RBC core-set gather (WCS foil)", Claim: "~n³ msgs, 2× rounds",
		Ns: sweepNs, Trials: 2, Run: statsRun(RunRBCGather),
	})
	Register(Spec{
		Name: "ablation/avss-wide", Group: "ablation",
		Title: "AVSS (λn-bit secret)", Claim: "Θ(λn³) tail",
		Ns: sweepNs, Trials: 2,
		Run: statsRun(func(rs RunSpec) (Stats, error) { return RunAVSS(rs, 32*rs.N) }),
	})

	// Adversarial-scheduler scenario suite: each new sim adversary gets at
	// least one spec; liveness under these schedules is a paper property
	// (termination under arbitrary-but-eventual delivery).
	Register(Spec{
		Name: "adv/coin-partition", Group: "adv", Tags: []string{"sched"},
		Title: "Coin under partition-then-heal", Claim: "terminates; α ≥ 1/3",
		Ns: smallNs, Trials: 4, Sched: partitionSched, Run: coinRun,
	})
	Register(Spec{
		Name: "adv/aba-lifo", Group: "adv", Tags: []string{"sched"},
		Title: "ABA under LIFO reordering", Claim: "terminates, O(1) rounds",
		Ns: smallNs, Trials: 4, Genesis: []byte("adv"), Sched: lifoSched,
		Run: abaRun(ABAPaperCoin),
	})
	Register(Spec{
		Name: "adv/coin-starve-seeding", Group: "adv", Tags: []string{"sched"},
		Title: "Coin with Seeding starved", Claim: "terminates",
		Ns: smallNs, Trials: 4, Sched: targetedSched("coin/sd/", 0.95), Run: coinRun,
	})
	Register(Spec{
		Name: "adv/vba-compose", Group: "adv", Tags: []string{"sched"},
		Title: "VBA under LIFO→starve-election→random", Claim: "terminates, agrees",
		Ns: smallNs, Trials: 4, Genesis: []byte("adv"), Sched: composeSched, Run: vbaRun,
	})
	Register(Spec{
		Name: "adv/election-crash-spread", Group: "adv", Tags: []string{"sched"},
		Title: "Election, f spread crashes + delay", Claim: "perfect agreement",
		Ns: smallNs, Trials: 4, Genesis: []byte("adv"), Sched: delaySched,
		Crash: func(n, f int) int { return f }, Where: harness.CrashSpread, Run: electionRun(RunElection),
	})
	Register(Spec{
		Name: "adv/election-lifo", Group: "adv", Tags: []string{"sched"},
		Title: "Election under LIFO reordering", Claim: "terminates, agrees",
		Ns: smallNs, Trials: 2, Sched: lifoSched, Run: electionRun(RunElection),
	})
	Register(Spec{
		Name: "adv/election-bots", Group: "adv", Tags: []string{"sched"},
		Title: "Election, all-⊥ speculative maxes", Claim: "votes 0, default leader",
		Ns: smallNs, Trials: 2, Genesis: []byte("adv"), Run: electionRun(RunElectionBots),
	})

	// Verifier-cache dedup: the vcache layer must collapse the coin's n²
	// candidate re-verifications and the election's per-RBC-slot re-checks
	// onto cold verifies; dedup-x records the achieved reduction factor.
	Register(Spec{
		Name: "dedup/vba-verifies", Group: "dedup", Tags: []string{"session"},
		Title: "VBA vrf-verify dedup factor", Claim: "≥ 2× fewer cold verifies",
		Ns: smallNs, Trials: 2, Genesis: []byte("dedup"), Run: vbaDedupRun,
	})

	// PVSS script-verify dedup: the scache layer must collapse the ADKG's
	// per-party receipt verifications and the VBA's per-sender-per-stage
	// predicate re-evaluations onto one cold verify per distinct script.
	Register(Spec{
		Name: "dedup/adkg-verifies", Group: "dedup", Tags: []string{"session"},
		Title: "ADKG script-verify dedup factor", Claim: "≥ n× fewer cold verifies",
		Ns: smallNs, Trials: 2, Genesis: []byte("dedup"), Run: adkgDedupRun,
	})

	// RS codec op shape: how much field work the n-RBC workload leaves
	// after the systematic fast paths; rs-systematic / rs-decodes is the
	// zero-cost-decode rate.
	Register(Spec{
		Name: "dedup/rs-ops", Group: "dedup", Tags: []string{"rbc"},
		Title: "RS codec ops per n-RBC run", Claim: "systematic decodes dominate",
		Ns: []int{4, 7, 16}, Trials: 2, Run: rbcOpsRun,
	})

	// Concurrent-instance session suite: many protocol instances multiplexed
	// onto ONE shared cluster (single PKI setup), under benign and
	// adversarial scheduling. bytes-ratio asserts that per-instance
	// accounting sums back to the cluster total. Each sweep starts at n=4
	// because the registry bench smoke runs every spec once at its smallest
	// size; the 8/16-party cells are the flagship scenario of the family.
	Register(Spec{
		Name: "mux/vba-8x", Group: "mux", Tags: []string{"session"},
		Title: "8 concurrent VBAs, one cluster", Claim: "terminates; Σ inst ≈ total",
		Ns: []int{4, 8, 16}, Trials: 2, Genesis: []byte("mux"), Run: muxRun(8, RunVBAMux),
	})
	Register(Spec{
		Name: "mux/vba-8x-lifo", Group: "mux", Tags: []string{"session", "sched"},
		Title: "8 concurrent VBAs under LIFO", Claim: "terminates; Σ inst ≈ total",
		Ns: []int{4, 8}, Trials: 2, Genesis: []byte("mux"), Sched: lifoSched,
		Run: muxRun(8, RunVBAMux),
	})
	Register(Spec{
		Name: "mux/vba-8x-partition", Group: "mux", Tags: []string{"session", "sched"},
		Title: "8 concurrent VBAs under partition-then-heal", Claim: "terminates; Σ inst ≈ total",
		Ns: []int{4, 8}, Trials: 2, Genesis: []byte("mux"), Sched: partitionSched,
		Run: muxRun(8, RunVBAMux),
	})
	Register(Spec{
		Name: "mux/coin-16x", Group: "mux", Tags: []string{"session"},
		Title: "16 concurrent coins (full Seeding), one cluster", Claim: "terminates; Σ inst ≈ total",
		Ns: []int{4}, Trials: 2, Run: muxRun(16, RunCoinMux),
	})
}
