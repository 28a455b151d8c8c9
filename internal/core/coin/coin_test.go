package coin

import (
	"testing"

	"repro/internal/crypto/vrf"
	"repro/internal/harness"
	"repro/internal/sim"
)

type fixture struct {
	c     *harness.Cluster
	insts []*Coin
	res   map[int]Result
	depth map[int]int
}

func setup(t *testing.T, n, f int, seed int64, cfg Config, opts harness.Options) *fixture {
	t.Helper()
	c, err := harness.NewCluster(n, f, seed, opts)
	if err != nil {
		t.Fatal(err)
	}
	fx := &fixture{c: c, insts: make([]*Coin, n), res: make(map[int]Result), depth: make(map[int]int)}
	c.EachHonest(func(i int) {
		fx.insts[i] = New(c.Net.Node(i), "c", c.Keys[i], cfg, func(r Result) {
			fx.res[i] = r
			fx.depth[i] = c.Net.Node(i).Depth()
		})
	})
	return fx
}

func (fx *fixture) startAll() {
	fx.c.EachHonest(func(i int) { fx.insts[i].Start() })
}

func TestTermination(t *testing.T) {
	const n, f = 4, 1
	fx := setup(t, n, f, 1, Config{}, harness.Options{})
	fx.startAll()
	if err := fx.c.Net.Run(20_000_000, func() bool { return len(fx.res) == n }); err != nil {
		t.Fatal(err)
	}
	for i, r := range fx.res {
		if r.Max == nil {
			t.Fatalf("node %d output ⊥ max in all-honest run", i)
		}
	}
}

func TestToleratesCrashedParties(t *testing.T) {
	const n, f = 4, 1
	byz := harness.LastFByzantine(n, f)
	fx := setup(t, n, f, 2, Config{}, harness.Options{Byzantine: byz, Crash: true})
	fx.startAll()
	honest := n - f
	if err := fx.c.Net.Run(20_000_000, func() bool { return len(fx.res) == honest }); err != nil {
		t.Fatal(err)
	}
}

// TestAgreementRate: over many seeds, the fraction of runs in which all
// honest parties output the same bit must be ≥ 1/3 (Lemma 10's α bound; in
// benign-scheduler runs it is near 1). Also checks the bit is not constant.
func TestAgreementRateAndBalance(t *testing.T) {
	const n, f = 4, 1
	const trials = 12
	agree, ones := 0, 0
	for seed := int64(0); seed < trials; seed++ {
		fx := setup(t, n, f, seed*31+7, Config{}, harness.Options{})
		fx.startAll()
		if err := fx.c.Net.Run(20_000_000, func() bool { return len(fx.res) == n }); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		same := true
		first := fx.res[0]
		for _, r := range fx.res {
			if r.Bit != first.Bit {
				same = false
			}
		}
		if same {
			agree++
			ones += int(first.Bit)
		}
	}
	if agree*3 < trials {
		t.Fatalf("agreement in %d/%d runs, below α = 1/3", agree, trials)
	}
	if ones == 0 || ones == agree {
		t.Logf("warning: all agreed bits identical (%d ones of %d) — acceptable at this sample size", ones, agree)
	}
}

func TestGenesisNonceMode(t *testing.T) {
	// The adaptive variant (1-time rnd setup) skips Seeding entirely.
	const n, f = 4, 1
	fx := setup(t, n, f, 3, Config{GenesisNonce: []byte("genesis")}, harness.Options{})
	fx.startAll()
	if err := fx.c.Net.Run(20_000_000, func() bool { return len(fx.res) == n }); err != nil {
		t.Fatal(err)
	}
	// No Seeding traffic at all.
	if got := fx.c.Net.Metrics().Honest.ByPrefix("c/sd/"); got.Msgs != 0 {
		t.Fatalf("genesis mode sent %d seeding messages", got.Msgs)
	}
}

func TestGenesisCheaperThanSeeded(t *testing.T) {
	const n, f = 4, 1
	run := func(cfg Config) int64 {
		fx := setup(t, n, f, 4, cfg, harness.Options{})
		fx.startAll()
		if err := fx.c.Net.Run(20_000_000, func() bool { return len(fx.res) == n }); err != nil {
			t.Fatal(err)
		}
		return fx.c.Net.Metrics().Honest.Bytes
	}
	seeded := run(Config{})
	genesis := run(Config{GenesisNonce: []byte("g")})
	if genesis >= seeded {
		t.Fatalf("genesis mode (%d B) not cheaper than seeded (%d B)", genesis, seeded)
	}
}

func TestConstantRounds(t *testing.T) {
	const n, f = 4, 1
	fx := setup(t, n, f, 5, Config{}, harness.Options{})
	fx.startAll()
	if err := fx.c.Net.Run(20_000_000, func() bool { return len(fx.res) == n }); err != nil {
		t.Fatal(err)
	}
	for i, d := range fx.depth {
		if d > 30 {
			t.Fatalf("node %d output at depth %d, want O(1) (≤ 30)", i, d)
		}
	}
}

func TestAdversarialSchedulerStillTerminates(t *testing.T) {
	const n, f = 4, 1
	fx := setup(t, n, f, 6, Config{}, harness.Options{
		Scheduler: sim.DelayScheduler{Slow: map[int]bool{0: true}, Bias: 0.8},
	})
	fx.startAll()
	if err := fx.c.Net.Run(40_000_000, func() bool { return len(fx.res) == n }); err != nil {
		t.Fatal(err)
	}
}

// TestSeedsAgree: every pair of honest parties that obtained seed_j holds
// the same value (Seeding's Committing property surfaced through Coin).
func TestSeedsAgree(t *testing.T) {
	const n, f = 4, 1
	fx := setup(t, n, f, 7, Config{}, harness.Options{})
	fx.startAll()
	if err := fx.c.Net.Run(20_000_000, func() bool { return len(fx.res) == n }); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < n; j++ {
		var ref *[32]byte
		for i := 0; i < n; i++ {
			if s, ok := fx.insts[i].Seed(j); ok {
				if ref == nil {
					v := s
					ref = &v
				} else if *ref != s {
					t.Fatalf("seed_%d differs between parties", j)
				}
			}
		}
	}
}

// TestMaxIsVerifiedVRF: the reported speculative max always carries a valid
// proof for the claimed leader.
func TestMaxIsVerifiedVRF(t *testing.T) {
	const n, f = 4, 1
	fx := setup(t, n, f, 8, Config{}, harness.Options{})
	fx.startAll()
	if err := fx.c.Net.Run(20_000_000, func() bool { return len(fx.res) == n }); err != nil {
		t.Fatal(err)
	}
	for i, r := range fx.res {
		if r.Max == nil {
			t.Fatalf("node %d: nil max", i)
		}
		sd, ok := fx.insts[i].Seed(r.Max.Leader)
		if !ok {
			t.Fatalf("node %d: missing seed for max leader", i)
		}
		in := fx.insts[i].VRFInput(sd)
		if !vrfVerify(fx.c, r.Max, in) {
			t.Fatalf("node %d: max VRF does not verify", i)
		}
	}
}

func TestOnSeedReplaysKnownSeeds(t *testing.T) {
	const n, f = 4, 1
	fx := setup(t, n, f, 9, Config{GenesisNonce: []byte("x")}, harness.Options{})
	fx.startAll()
	got := 0
	fx.insts[0].OnSeed(func(int, [32]byte) { got++ })
	if got != n {
		t.Fatalf("OnSeed replayed %d seeds, want %d", got, n)
	}
}

// TestCoinSeedReplayDeterministic: replaying already-known seeds must not
// depend on Go map iteration order — identical (spec, seed) runs would
// otherwise process downstream election accepts in different orders and
// could form different n−f ballots. Repeated subscriptions must observe
// the one canonical (ascending) order every time.
func TestCoinSeedReplayDeterministic(t *testing.T) {
	const n, f = 7, 2
	var ref []int
	for run := 0; run < 8; run++ {
		fx := setup(t, n, f, 10, Config{GenesisNonce: []byte("det")}, harness.Options{})
		fx.startAll() // genesis mode: all n seeds known immediately
		var order []int
		fx.insts[0].OnSeed(func(j int, _ [32]byte) { order = append(order, j) })
		if len(order) != n {
			t.Fatalf("run %d: replayed %d seeds, want %d", run, len(order), n)
		}
		for i := 1; i < len(order); i++ {
			if order[i-1] >= order[i] {
				t.Fatalf("run %d: replay order %v not ascending", run, order)
			}
		}
		if ref == nil {
			ref = order
		} else if !slicesEqual(ref, order) {
			t.Fatalf("run %d: replay order %v differs from first run %v", run, order, ref)
		}
	}
}

func slicesEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func vrfVerify(c *harness.Cluster, cand *Candidate, input []byte) bool {
	return vrf.Verify(c.Board.Parties[cand.Leader].VRF, input, cand.Value, cand.Proof)
}
