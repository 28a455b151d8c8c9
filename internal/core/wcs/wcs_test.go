package wcs

import (
	"testing"

	"repro/internal/crypto/sig"
	"repro/internal/harness"
	"repro/internal/sim"
	"repro/internal/wire"
)

type fixture struct {
	c     *harness.Cluster
	insts []*WCS
	outs  map[int]map[int]bool
	depth map[int]int
}

func setup(t *testing.T, n, f int, seed int64, opts harness.Options) *fixture {
	t.Helper()
	c, err := harness.NewCluster(n, f, seed, opts)
	if err != nil {
		t.Fatal(err)
	}
	fx := &fixture{c: c, insts: make([]*WCS, n), outs: make(map[int]map[int]bool), depth: make(map[int]int)}
	c.EachHonest(func(i int) {
		fx.insts[i] = New(c.Net.Node(i), "wcs", c.Keys[i], func(set map[int]bool) {
			fx.outs[i] = set
			fx.depth[i] = c.Net.Node(i).Depth()
		})
	})
	return fx
}

// feed gives every honest party the same growing input set, mimicking AVSS
// completions arriving in arbitrary order.
func (fx *fixture) feedAll(indices []int) {
	fx.c.EachHonest(func(i int) {
		for _, j := range indices {
			fx.insts[i].Add(j)
		}
	})
}

func TestAllHonestOutput(t *testing.T) {
	const n, f = 4, 1
	fx := setup(t, n, f, 1, harness.Options{})
	fx.feedAll([]int{0, 1, 2})
	if err := fx.c.Net.Run(1_000_000, func() bool { return len(fx.outs) == n }); err != nil {
		t.Fatal(err)
	}
	for i, set := range fx.outs {
		if len(set) < n-f {
			t.Fatalf("node %d output only %d indices", i, len(set))
		}
	}
}

func TestValidity(t *testing.T) {
	// Outputs only ever contain fed indices.
	const n, f = 7, 2
	fx := setup(t, n, f, 2, harness.Options{})
	fed := []int{0, 2, 3, 5, 6}
	fx.feedAll(fed)
	if err := fx.c.Net.Run(2_000_000, func() bool { return len(fx.outs) == n }); err != nil {
		t.Fatal(err)
	}
	fedSet := map[int]bool{}
	for _, j := range fed {
		fedSet[j] = true
	}
	for i, set := range fx.outs {
		for j := range set {
			if !fedSet[j] {
				t.Fatalf("node %d output unfed index %d (validity violated)", i, j)
			}
		}
	}
}

// TestCoreSetSupport: once the first honest party outputs, there must exist
// an (n−f)-sized core that is a subset of at least f+1 honest parties'
// outputs — checked over many schedules with staggered inputs.
func TestFPlusOneSupportingCoreSet(t *testing.T) {
	const n, f = 7, 2
	for seed := int64(0); seed < 15; seed++ {
		fx := setup(t, n, f, seed, harness.Options{})
		// Parties learn completions in different orders/subsets.
		fx.c.EachHonest(func(i int) {
			for k := 0; k < n-f; k++ {
				fx.insts[i].Add((i + k) % n)
			}
		})
		// Keep growing inputs so every index eventually appears everywhere
		// (the Termination precondition).
		fx.c.EachHonest(func(i int) {
			for j := 0; j < n; j++ {
				fx.insts[i].Add(j)
			}
		})
		if err := fx.c.Net.Run(2_000_000, func() bool { return len(fx.outs) == n }); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Every pair of outputs shares ≥ n−f? No — the weak guarantee is
		// about some f+1 subset. Check: some (n−f)-sized set is contained
		// in ≥ f+1 outputs. Since every party's Commit proves n−f parties
		// locked supersets, verify pairwise intersections are large enough
		// to witness a core among f+1 parties.
		counts := map[int]int{}
		for _, set := range fx.outs {
			for j := range set {
				counts[j]++
			}
		}
		core := 0
		for _, c := range counts {
			if c >= f+1 {
				core++
			}
		}
		if core < n-f {
			t.Fatalf("seed %d: only %d indices appear in f+1 outputs, want ≥ %d", seed, core, n-f)
		}
	}
}

func TestToleratesCrashes(t *testing.T) {
	const n, f = 7, 2
	byz := harness.LastFByzantine(n, f)
	fx := setup(t, n, f, 3, harness.Options{Byzantine: byz, Crash: true})
	fx.feedAll([]int{0, 1, 2, 3, 4})
	honest := n - f
	if err := fx.c.Net.Run(2_000_000, func() bool { return len(fx.outs) == honest }); err != nil {
		t.Fatal(err)
	}
}

func TestThreeRounds(t *testing.T) {
	const n, f = 7, 2
	fx := setup(t, n, f, 4, harness.Options{})
	fx.feedAll([]int{0, 1, 2, 3, 4})
	if err := fx.c.Net.Run(2_000_000, func() bool { return len(fx.outs) == n }); err != nil {
		t.Fatal(err)
	}
	for i, d := range fx.depth {
		if d > 3 {
			t.Fatalf("node %d output at depth %d, want ≤ 3 (Lock/Confirm/Commit)", i, d)
		}
	}
}

func TestRejectsSmallLockSets(t *testing.T) {
	const n, f = 4, 1
	fx := setup(t, n, f, 5, harness.Options{})
	// Byzantine lock with |set| < n−f must be rejected.
	var w wire.Writer
	w.Byte(msgLock)
	w.BitSet(map[int]bool{0: true}, n)
	fx.c.Net.Inject(3, 0, "wcs", w.Bytes())
	if err := fx.c.Net.RunAll(10_000); err != nil {
		t.Fatal(err)
	}
	if fx.c.Net.Metrics().Rejected == 0 {
		t.Fatal("undersized lock set not rejected")
	}
}

func TestForgedCommitRejected(t *testing.T) {
	const n, f = 4, 1
	fx := setup(t, n, f, 6, harness.Options{})
	// Commit with an unbacked quorum (no signatures).
	var w wire.Writer
	w.Byte(msgCommit)
	w.BitSet(map[int]bool{0: true, 1: true, 2: true}, n)
	w.Int(0) // empty quorum
	fx.c.Net.Inject(3, 0, "wcs", w.Bytes())
	if err := fx.c.Net.RunAll(10_000); err != nil {
		t.Fatal(err)
	}
	if len(fx.outs) != 0 {
		t.Fatal("output produced from forged commit")
	}
}

// TestBadCommitSignatureRejectedTwice sends one commit whose quorum holds a
// valid signature at another signer's index, twice. Both copies are
// rejected, and the second re-verifies only the bad member: the signature
// book records the valid members, never the bad one.
func TestBadCommitSignatureRejectedTwice(t *testing.T) {
	const n, f = 4, 1
	fx := setup(t, n, f, 6, harness.Options{})
	set := map[int]bool{0: true, 1: true, 2: true}
	var setW wire.Writer
	setW.BitSet(set, n)
	msg := sigMsg("wcs", setW.Bytes())
	var q sig.Quorum
	q.Add(0, fx.c.Keys[0].Sig.Sign(msg))
	q.Add(1, fx.c.Keys[1].Sig.Sign(msg))
	q.Add(2, fx.c.Keys[1].Sig.Sign(msg)) // party 1's signature at party 2's index
	var w wire.Writer
	w.Byte(msgCommit)
	w.BitSet(set, n)
	q.Encode(&w)
	book := fx.c.Keys[0]
	for try := int64(1); try <= 2; try++ {
		before := book.SigVerifies()
		fx.c.Net.Inject(3, 0, "wcs", w.Bytes())
		if err := fx.c.Net.RunAll(10_000); err != nil {
			t.Fatal(err)
		}
		if got := fx.c.Net.Metrics().Rejected; got != try {
			t.Fatalf("after copy %d: %d rejects, want %d", try, got, try)
		}
		want := int64(3) // every member of the first copy
		if try == 2 {
			want = 1 // only the bad member of the second
		}
		if got := book.SigVerifies() - before; got != want {
			t.Fatalf("copy %d: %d signatures verified, want %d", try, got, want)
		}
	}
	if len(fx.outs) != 0 {
		t.Fatal("output produced from a commit with a bad signature")
	}
}

func TestStaggeredInputsStillTerminate(t *testing.T) {
	// Inputs arrive interleaved with message delivery: drive the network a
	// few steps between Add calls.
	const n, f = 4, 1
	fx := setup(t, n, f, 7, harness.Options{
		Scheduler: sim.DelayScheduler{Slow: map[int]bool{1: true}, Bias: 0.7},
	})
	for j := 0; j < n; j++ {
		fx.feedAll([]int{j})
		for s := 0; s < 50; s++ {
			fx.c.Net.Step()
		}
	}
	if err := fx.c.Net.Run(2_000_000, func() bool { return len(fx.outs) == n }); err != nil {
		t.Fatal(err)
	}
}
