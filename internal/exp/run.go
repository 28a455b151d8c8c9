// Package exp contains the experiment layer: the instance launchers
// (launch.go) that wire one protocol instance onto a long-lived
// harness.Cluster of either runtime, the per-protocol Run* functions (each
// builds a fresh keyed cluster, executes one instance to completion, and
// reports the paper's three metrics of §3 plus outcome-quality fields), the
// concurrent-instance runners (mux.go), the named-Spec registry indexing
// every experiment E1–E11 with its baselines and adversarial scenarios, and
// the parallel matrix engine that sweeps specs over party counts and seeded
// trials. It is shared by cmd/benchtable, the root testing.B benchmarks,
// the public session API (repro.Cluster) and the integration test suite;
// see README.md for the experiment index.
package exp

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/baseline/ajm21"
	"repro/internal/baseline/ckls02"
	"repro/internal/baseline/kms20"
	"repro/internal/baseline/threshcoin"
	"repro/internal/core/aba"
	"repro/internal/core/avss"
	"repro/internal/core/beacon"
	"repro/internal/core/coin"
	"repro/internal/core/election"
	"repro/internal/core/rbc"
	"repro/internal/core/seeding"
	"repro/internal/core/vba"
	"repro/internal/core/wcs"
	"repro/internal/crypto/field"
	"repro/internal/crypto/rs"
	"repro/internal/harness"
	"repro/internal/kinds"
	"repro/internal/proto"
	"repro/internal/sim"
)

// Stats summarizes one protocol run with the paper's three metrics (§3).
type Stats struct {
	N, F   int
	Msgs   int64
	Bytes  int64
	Rounds int   // max causal depth at output (asynchronous rounds)
	Steps  int64 // simulator deliveries (not a paper metric; for context)
	// Verifies counts cold VRF verifications — P-256 work the cluster's
	// memoizing verifier could not dedup. Like Steps it is cluster-
	// cumulative: concurrent instances share one cache, so an instance's
	// value is a completion-time snapshot, not an instance-scoped delta.
	Verifies int64
	// ScriptVerifies counts cold PVSS script verifications — multi-pairing
	// work the cluster's script cache could not dedup. Cluster-cumulative,
	// like Verifies.
	ScriptVerifies int64
	// RSOps counts Reed–Solomon codec operations (systematic encodes +
	// cached-basis decodes) driven by the run's AVID broadcasts — the
	// erasure-coding data-plane counterpart of Verifies/ScriptVerifies.
	RSOps int64
	// Rejected counts messages honest parties dropped at receipt as
	// malformed or cryptographically invalid — the detection counter the
	// Byzantine-behavior specs assert on. Zero in honest runs.
	Rejected int64
	// Equivocations counts messages carrying proof that a sender lied:
	// conflicting votes, double FINISHes, pinned-value flips. Stronger
	// evidence than Rejected (garbage has no provable author; an
	// equivocation does). Zero in honest runs.
	Equivocations int64
}

func (s Stats) String() string {
	return fmt.Sprintf("n=%d msgs=%d bytes=%d rounds=%d", s.N, s.Msgs, s.Bytes, s.Rounds)
}

// RunSpec configures a single experiment run.
type RunSpec struct {
	N       int
	F       int // negative = ⌊(n−1)/3⌋
	Seed    int64
	Genesis []byte               // non-nil → adaptive variant (skip Seeding)
	Sched   sim.Scheduler        // nil = random
	Crash   int                  // crash `Crash` parties (see CrashWhere)
	Where   harness.CrashProfile // which parties crash; "" = last
	Steps   int64                // delivery budget; 0 = sim.DefaultDeliveryBudget
}

func (r RunSpec) steps() int64 {
	if r.Steps > 0 {
		return r.Steps
	}
	return sim.DefaultDeliveryBudget
}

// faults is the corruption bound: F, or ⌊(n−1)/3⌋ when F is negative.
func (r RunSpec) faults() int {
	if r.F < 0 {
		return (r.N - 1) / 3
	}
	return r.F
}

func (r RunSpec) cluster() (*harness.Cluster, error) {
	byz := harness.Crashed(r.Where, r.N, r.Crash, r.Seed)
	return harness.NewCluster(r.N, r.faults(), r.Seed, harness.Options{
		Scheduler: r.Sched, Byzantine: byz, Crash: true, Budget: r.steps(),
	})
}

func (r RunSpec) coinCfg() coin.Config { return coin.Config{GenesisNonce: r.Genesis} }

// collectStats is the Stats of a run that owned its whole cluster.
func collectStats(c *harness.Cluster, rounds int) Stats {
	s := ClusterStats(c)
	s.Rounds = rounds
	return s
}

// partyBuild constructs party i's instance in its dispatch context, wires its
// output to t.report(i), and returns the party's start (nil = none).
type partyBuild func(c *harness.Cluster, t *tracker, i int) func()

// runParties builds spec's cluster and runs one hand-wired instance per
// honest party under tag to completion (see launchParties).
func runParties(spec RunSpec, tag string, build partyBuild) (*harness.Cluster, *tracker, error) {
	c, err := spec.cluster()
	if err != nil {
		return nil, nil, err
	}
	t, err := launchParties(c, tag, build)
	return c, t, err
}

// launchParties builds every honest party's instance before it starts any,
// both in party order — the enqueue order the simulator's trajectories pin —
// and waits until every honest party reported.
func launchParties(c *harness.Cluster, tag string, build partyBuild) (*tracker, error) {
	t := newTracker(c, tag)
	starts := make([]func(), c.N)
	c.EachHonest(func(i int) { c.Launch(i, func() { starts[i] = build(c, t, i) }) })
	c.EachHonest(func(i int) {
		if starts[i] != nil {
			c.Launch(i, starts[i])
		}
	})
	return t, t.wait(context.Background())
}

// run executes one instance of the named kind under tag on a fresh cluster
// and returns it once every honest party decided.
func run(spec RunSpec, name, tag string, in func(i int) kinds.Input) (*Instance, error) {
	c, err := spec.cluster()
	if err != nil {
		return nil, err
	}
	inst, err := Launch(c, name, tag, spec.Genesis, in)
	if err != nil {
		return nil, err
	}
	if err := inst.Wait(context.Background()); err != nil {
		return nil, fmt.Errorf("%s run: %w", name, err)
	}
	return inst, nil
}

// CoinOutcome is the result of RunCoin.
type CoinOutcome struct {
	Stats    Stats
	Agreed   bool // all honest parties output the same bit
	Bit      byte // the (first party's) bit
	MaxIsSet bool // the speculative max was non-⊥ everywhere
	PerPhase map[string]proto.Tally
}

// RunCoin executes one common coin (Alg. 4) across a fresh cluster.
func RunCoin(spec RunSpec) (CoinOutcome, error) {
	inst, err := run(spec, "coin", "coin", nil)
	if err != nil {
		return CoinOutcome{}, err
	}
	return CoinInstance{inst}.Outcome(), nil
}

// ABAOutcome is the result of RunABA.
type ABAOutcome struct {
	Stats     Stats
	Agreed    bool
	Bit       byte
	MeanRound float64 // mean DecidedRound across honest parties
	MaxRound  int
}

// ABACoinKind selects the coin powering the ABA.
type ABACoinKind int

// Coin kinds for RunABA.
const (
	ABAPaperCoin  ABACoinKind = iota // the Alg. 4 coin (Theorem 4)
	ABATestCoin                      // free perfect coin (costless-coin lower bound)
	ABALocalCoin                     // Ben-Or style local coin (no agreement)
	ABAThreshCoin                    // threshold coin WITH private setup (CKS'00)
)

// RunABA executes one binary agreement; inputs[i] is party i's bit.
func RunABA(spec RunSpec, inputs []byte, kind ABACoinKind) (ABAOutcome, error) {
	c, err := spec.cluster()
	if err != nil {
		return ABAOutcome{}, err
	}
	var setup *threshcoin.Setup
	var tshares []field.Scalar
	if kind == ABAThreshCoin {
		s, sh, derr := threshcoin.Deal(c.N, c.F, rand.New(rand.NewSource(spec.Seed^0x7ea1)))
		if derr != nil {
			return ABAOutcome{}, derr
		}
		setup, tshares = s, sh
	}
	inst := launchKnown(c, "aba", "aba", spec.Genesis, func(i int) kinds.Input {
		in := kinds.Input{Bit: inputs[i]} // nil Coins: the paper coin under aba/c
		switch kind {
		case ABATestCoin:
			in.Coins = aba.TestCoins(fmt.Sprint("h", spec.Seed))
		case ABALocalCoin:
			in.Coins = aba.AdversarialCoins(fmt.Sprint("h", spec.Seed), i)
		case ABAThreshCoin:
			in.Coins = threshcoin.Factory(c.Runtime(i), "aba/tc", setup, tshares[i])
		}
		return in
	})
	if err := inst.Wait(context.Background()); err != nil {
		return ABAOutcome{}, fmt.Errorf("aba run: %w", err)
	}
	return ABAInstance{inst}.Outcome(), nil
}

// ElectionOutcome is the result of RunElection.
type ElectionOutcome struct {
	Stats     Stats
	Agreed    bool
	Leader    int
	ByDefault bool
}

// RunElection executes one leader election (Alg. 5).
func RunElection(spec RunSpec) (ElectionOutcome, error) {
	inst, err := run(spec, "election", "el", nil)
	if err != nil {
		return ElectionOutcome{}, err
	}
	return ElectionInstance{inst}.Outcome(), nil
}

// VBAOutcome is the result of RunVBA.
type VBAOutcome struct {
	Stats   Stats
	Agreed  bool
	Value   []byte
	MaxView int
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

// ADKGOutcome is the result of RunADKG.
type ADKGOutcome struct {
	Stats        Stats
	KeysAgree    bool
	Contributors int
}

// RunADKG executes one distributed key generation (§7.3).
func RunADKG(spec RunSpec) (ADKGOutcome, error) {
	inst, err := run(spec, "adkg", "dkg", nil)
	if err != nil {
		return ADKGOutcome{}, err
	}
	return ADKGInstance{inst}.Outcome(), nil
}

// BeaconOutcome is the result of RunBeacon.
type BeaconOutcome struct {
	Stats       Stats
	Epochs      int
	Agreed      bool
	Values      []beacon.Value
	MeanAttempt float64
}

// RunBeacon executes `epochs` epochs of the DKG-free beacon (§7.3).
func RunBeacon(spec RunSpec, epochs int) (BeaconOutcome, error) {
	inst, err := run(spec, "beacon", "bcn", func(int) kinds.Input { return kinds.Input{Epochs: epochs} })
	if err != nil {
		return BeaconOutcome{}, err
	}
	return BeaconInstance{inst}.Outcome(), nil
}

// RunAVSS measures one AVSS instance dealt by party 0 (E9).
func RunAVSS(spec RunSpec, payload int) (Stats, error) {
	c, t, err := runParties(spec, "avss", func(c *harness.Cluster, t *tracker, i int) func() {
		a := avss.New(c.Runtime(i), "avss", c.Keys[i], 0, func(avss.ShareOutput) { t.report(i) }, nil)
		if i != 0 {
			return nil
		}
		return func() { a.StartDealer(make([]byte, payload)) }
	})
	if err != nil {
		return Stats{}, fmt.Errorf("avss run: %w", err)
	}
	return collectStats(c, t.rounds), nil
}

// RunWCS measures one weak core-set selection (E10).
func RunWCS(spec RunSpec) (Stats, error) {
	c, t, err := runParties(spec, "wcs", func(c *harness.Cluster, t *tracker, i int) func() {
		w := wcs.New(c.Runtime(i), "wcs", c.Keys[i], func(map[int]bool) { t.report(i) })
		return func() {
			for j := 0; j < c.N-c.F; j++ {
				w.Add(j)
			}
		}
	})
	if err != nil {
		return Stats{}, fmt.Errorf("wcs run: %w", err)
	}
	return collectStats(c, t.rounds), nil
}

// RunSeeding measures one Seeding instance (E11).
func RunSeeding(spec RunSpec) (Stats, error) {
	c, t, err := runParties(spec, "sd", func(c *harness.Cluster, t *tracker, i int) func() {
		return seeding.New(c.Runtime(i), "sd", c.Keys[i], 0, func([seeding.SeedSize]byte) { t.report(i) }).Start
	})
	if err != nil {
		return Stats{}, fmt.Errorf("seeding run: %w", err)
	}
	return collectStats(c, t.rounds), nil
}

// RunRBC measures the AVID erasure-coded broadcast data plane under the
// n-broadcast pattern one VBA view drives: every honest party disperses a
// payload-byte value under its own instance tag, and the run completes when
// every honest party has delivered every honest sender's broadcast. The
// returned Stats carry the RSOps the workload pushed through the cached-
// basis codec.
func RunRBC(spec RunSpec, payload int) (Stats, error) {
	st, _, err := RunRBCOps(spec, payload)
	return st, err
}

// RunRBCOps is RunRBC plus the cluster's Reed–Solomon codec counters,
// quantifying the data-plane shape: systematic encodes, cached-basis
// decodes, how many decodes hit the zero-field-work concatenation path, and
// the field multiplications the parity rows cost.
func RunRBCOps(spec RunSpec, payload int) (Stats, rs.Stats, error) {
	c, t, err := runParties(spec, "rb", func(c *harness.Cluster, t *tracker, i int) func() {
		delivered := 0
		insts := make([]*rbc.AVID, c.N)
		for j := range insts {
			insts[j] = rbc.NewAVID(c.Runtime(i), fmt.Sprintf("rb/%d", j), j, func([]byte) {
				t.bump(i)
				if delivered++; delivered == c.Honest() {
					t.report(i)
				}
			})
		}
		value := make([]byte, payload)
		for m := range value {
			value[m] = byte(31*i + m)
		}
		return func() { insts[i].Start(value) }
	})
	if err != nil {
		return Stats{}, rs.Stats{}, fmt.Errorf("rbc run: %w", err)
	}
	return collectStats(c, t.rounds), c.RSStats(), nil
}

// RunElectionBots models corruption beyond what honest coin runs can
// produce: EVERY party's speculative max is forced to ⊥ (the coin layer is
// bypassed via ForceCoinResult; RBC and ABA run for real). Alg. 5 must
// then vote 0 and elect the default leader rather than stall — the ⊥
// broadcasts count toward the n−f vote threshold as zero ballots.
func RunElectionBots(spec RunSpec) (ElectionOutcome, error) {
	c, err := spec.cluster()
	if err != nil {
		return ElectionOutcome{}, err
	}
	inst := newInstance(c, "el")
	c.EachHonest(func(i int) {
		decide := inst.record(i)
		c.Launch(i, func() {
			e := election.New(c.Runtime(i), "el", c.Keys[i],
				election.Config{Coin: spec.coinCfg()}, func(r election.Result) {
					decide(&kinds.Decision{Kind: "election", Tag: "el", Leader: r.Leader, ByDefault: r.ByDefault})
				})
			e.ForceCoinResult(coin.Result{})
		})
	})
	if err := inst.Wait(context.Background()); err != nil {
		return ElectionOutcome{}, fmt.Errorf("election bots run: %w", err)
	}
	return ElectionInstance{inst}.Outcome(), nil
}

// BaselineKind selects a Table 1 comparator coin.
type BaselineKind int

// Baseline coins for RunBaselineCoin.
const (
	BaselineCKLS02 BaselineKind = iota
	BaselineAJM21
	BaselineThresh
)

// RunBaselineCoin executes one baseline coin and reports its cost.
func RunBaselineCoin(spec RunSpec, kind BaselineKind) (Stats, error) {
	var setup *threshcoin.Setup
	var shares []field.Scalar
	if kind == BaselineThresh {
		var err error
		if setup, shares, err = threshcoin.Deal(spec.N, spec.faults(), rand.New(rand.NewSource(spec.Seed^0x7ea1))); err != nil {
			return Stats{}, err
		}
	}
	c, t, err := runParties(spec, "bl", func(c *harness.Cluster, t *tracker, i int) func() {
		report := func(byte) { t.report(i) }
		switch kind {
		case BaselineCKLS02:
			return ckls02.New(c.Runtime(i), "bl", c.Keys[i], report).Start
		case BaselineAJM21:
			return ajm21.New(c.Runtime(i), "bl", c.Keys[i], report).Start
		default:
			return threshcoin.New(c.Runtime(i), "bl", setup, shares[i], report).Start
		}
	})
	if err != nil {
		return Stats{}, fmt.Errorf("baseline coin run: %w", err)
	}
	return collectStats(c, t.rounds), nil
}

// KMS20Outcome reports the two-phase KMS20 facsimile costs.
type KMS20Outcome struct {
	Bootstrap Stats
	PerCoin   Stats
}

// RunKMS20 measures the bootstrap and one subsequent coin.
func RunKMS20(spec RunSpec) (KMS20Outcome, error) {
	keys := make([]kms20.Key, spec.N)
	c, t, err := runParties(spec, "km", func(c *harness.Cluster, t *tracker, i int) func() {
		return kms20.NewBootstrap(c.Runtime(i), "km", c.Keys[i], func(k kms20.Key) {
			keys[i] = k
			t.report(i)
		}).Start
	})
	if err != nil {
		return KMS20Outcome{}, fmt.Errorf("kms20 bootstrap: %w", err)
	}
	out := KMS20Outcome{Bootstrap: collectStats(c, t.rounds)}
	if _, err := launchParties(c, "km/c0", func(c *harness.Cluster, t *tracker, i int) func() {
		return kms20.NewCoin(c.Runtime(i), "km/c0", keys[i], func(byte) { t.report(i) }).Start
	}); err != nil {
		return KMS20Outcome{}, fmt.Errorf("kms20 coin: %w", err)
	}
	tl := c.TotalTally()
	out.PerCoin = Stats{N: c.N, F: c.F, Msgs: tl.Msgs - out.Bootstrap.Msgs, Bytes: tl.Bytes - out.Bootstrap.Bytes, Rounds: 1}
	return out, nil
}
