package aba

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/core/coin"
	"repro/internal/harness"
	"repro/internal/sim"
)

type fixture struct {
	c     *harness.Cluster
	insts []*ABA
	outs  map[int]byte
	depth map[int]int
}

// setup wires ABA instances with the given coin factory builder (per node).
func setup(t *testing.T, n, f int, seed int64, opts harness.Options, coins func(i int) CoinFactory) *fixture {
	t.Helper()
	c, err := harness.NewCluster(n, f, seed, opts)
	if err != nil {
		t.Fatal(err)
	}
	fx := &fixture{c: c, insts: make([]*ABA, n), outs: make(map[int]byte), depth: make(map[int]int)}
	c.EachHonest(func(i int) {
		fx.insts[i] = New(c.Net.Node(i), "aba", coins(i), func(b byte) {
			fx.outs[i] = b
			fx.depth[i] = c.Net.Node(i).Depth()
		})
	})
	return fx
}

func testCoins(seed string) func(int) CoinFactory {
	return func(int) CoinFactory { return TestCoins(seed) }
}

func (fx *fixture) start(inputs map[int]byte) {
	fx.c.EachHonest(func(i int) { fx.insts[i].Start(inputs[i]) })
}

func (fx *fixture) checkAgreementValidity(t *testing.T, inputs map[int]byte, wantAll int) {
	t.Helper()
	if len(fx.outs) != wantAll {
		t.Fatalf("%d of %d honest decided", len(fx.outs), wantAll)
	}
	var first *byte
	for _, b := range fx.outs {
		if first == nil {
			v := b
			first = &v
		} else if *first != b {
			t.Fatal("agreement violated")
		}
	}
	// Validity: the decided bit was some honest party's input.
	found := false
	for i, in := range inputs {
		if !fx.c.Byz[i] && in == *first {
			found = true
		}
	}
	if !found {
		t.Fatalf("decided %d but no honest party input it", *first)
	}
}

func TestUnanimousInputsDecideFast(t *testing.T) {
	for _, bit := range []byte{0, 1} {
		const n, f = 4, 1
		fx := setup(t, n, f, int64(bit)+1, harness.Options{}, testCoins("s"))
		inputs := map[int]byte{0: bit, 1: bit, 2: bit, 3: bit}
		fx.start(inputs)
		if err := fx.c.Net.Run(1_000_000, func() bool { return len(fx.outs) == n }); err != nil {
			t.Fatal(err)
		}
		fx.checkAgreementValidity(t, inputs, n)
		for i, b := range fx.outs {
			if b != bit {
				t.Fatalf("node %d decided %d on unanimous %d input", i, b, bit)
			}
		}
		for _, inst := range fx.insts {
			if inst.DecidedRound != 1 {
				t.Fatalf("unanimous input decided in round %d, want 1", inst.DecidedRound)
			}
		}
	}
}

func TestSplitInputsAgree(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		const n, f = 4, 1
		fx := setup(t, n, f, seed, harness.Options{}, testCoins(fmt.Sprint(seed)))
		inputs := map[int]byte{0: 0, 1: 1, 2: 0, 3: 1}
		fx.start(inputs)
		if err := fx.c.Net.Run(2_000_000, func() bool { return len(fx.outs) == n }); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		fx.checkAgreementValidity(t, inputs, n)
	}
}

func TestLargerNetworks(t *testing.T) {
	for _, n := range []int{7, 10} {
		f := (n - 1) / 3
		fx := setup(t, n, f, int64(n), harness.Options{}, testCoins("big"))
		inputs := map[int]byte{}
		for i := 0; i < n; i++ {
			inputs[i] = byte(i % 2)
		}
		fx.start(inputs)
		if err := fx.c.Net.Run(5_000_000, func() bool { return len(fx.outs) == n }); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		fx.checkAgreementValidity(t, inputs, n)
	}
}

func TestToleratesCrashedParties(t *testing.T) {
	const n, f = 7, 2
	byz := harness.LastFByzantine(n, f)
	fx := setup(t, n, f, 3, harness.Options{Byzantine: byz, Crash: true}, testCoins("crash"))
	inputs := map[int]byte{}
	for i := 0; i < n; i++ {
		inputs[i] = byte((i + 1) % 2)
	}
	fx.start(inputs)
	honest := n - f
	if err := fx.c.Net.Run(5_000_000, func() bool { return len(fx.outs) == honest }); err != nil {
		t.Fatal(err)
	}
	fx.checkAgreementValidity(t, inputs, honest)
}

// TestSafetyUnderAdversarialCoin: with a maximally disagreeing coin (every
// party sees an independent bit) agreement must still hold whenever parties
// decide — the two-stage structure consults the coin only in all-⊥ views.
func TestSafetyUnderAdversarialCoin(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		const n, f = 4, 1
		coins := func(i int) CoinFactory { return AdversarialCoins(fmt.Sprint(seed), i) }
		fx := setup(t, n, f, seed, harness.Options{}, coins)
		inputs := map[int]byte{0: 0, 1: 1, 2: 1, 3: 0}
		fx.start(inputs)
		// Termination is not guaranteed quickly under full disagreement;
		// run a bounded schedule and check any decisions agree.
		_ = fx.c.Net.Run(3_000_000, func() bool { return len(fx.outs) == n })
		var first *byte
		for i, b := range fx.outs {
			if first == nil {
				v := b
				first = &v
			} else if *first != b {
				t.Fatalf("seed %d: node %d decided %d vs %d under adversarial coin", seed, i, b, *first)
			}
		}
	}
}

func TestAdversarialSchedulerStillDecides(t *testing.T) {
	const n, f = 4, 1
	fx := setup(t, n, f, 11, harness.Options{
		Scheduler: sim.DelayScheduler{Slow: map[int]bool{2: true}, Bias: 0.85},
	}, testCoins("sched"))
	inputs := map[int]byte{0: 1, 1: 0, 2: 1, 3: 0}
	fx.start(inputs)
	if err := fx.c.Net.Run(5_000_000, func() bool { return len(fx.outs) == n }); err != nil {
		t.Fatal(err)
	}
	fx.checkAgreementValidity(t, inputs, n)
}

// TestExpectedConstantRounds: across seeds and split inputs, the mean
// decided round should be small (expected O(1); with a perfect test coin
// ≈ ≤ 2) and the max bounded.
func TestExpectedConstantRounds(t *testing.T) {
	total, count, maxR := 0, 0, 0
	for seed := int64(0); seed < 12; seed++ {
		const n, f = 4, 1
		fx := setup(t, n, f, seed*13+1, harness.Options{}, testCoins(fmt.Sprint("r", seed)))
		inputs := map[int]byte{0: byte(seed) & 1, 1: 1, 2: 0, 3: byte(seed>>1) & 1}
		fx.start(inputs)
		if err := fx.c.Net.Run(3_000_000, func() bool { return len(fx.outs) == n }); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, inst := range fx.insts {
			total += inst.DecidedRound
			count++
			if inst.DecidedRound > maxR {
				maxR = inst.DecidedRound
			}
		}
	}
	mean := float64(total) / float64(count)
	if mean > 3.0 {
		t.Fatalf("mean decided round %.2f, want ≤ 3 with perfect coin", mean)
	}
	if maxR > 8 {
		t.Fatalf("max decided round %d, want ≤ 8", maxR)
	}
}

// TestWithPaperCoin: the full composition — ABA driven by the real Alg. 4
// coin stack (Theorem 4).
func TestWithPaperCoin(t *testing.T) {
	const n, f = 4, 1
	c, err := harness.NewCluster(n, f, 21, harness.Options{})
	if err != nil {
		t.Fatal(err)
	}
	outs := make(map[int]byte)
	insts := make([]*ABA, n)
	for i := 0; i < n; i++ {
		i := i
		coins := PaperCoins(c.Net.Node(i), "aba/coin", c.Keys[i], coinConfig())
		insts[i] = New(c.Net.Node(i), "aba", coins, func(b byte) { outs[i] = b })
	}
	inputs := []byte{1, 0, 1, 0}
	for i := 0; i < n; i++ {
		insts[i].Start(inputs[i])
	}
	if err := c.Net.Run(50_000_000, func() bool { return len(outs) == n }); err != nil {
		t.Fatal(err)
	}
	var first *byte
	for _, b := range outs {
		if first == nil {
			v := b
			first = &v
		} else if *first != b {
			t.Fatal("agreement violated with paper coin")
		}
	}
}

func TestByzantineEquivocatingVotes(t *testing.T) {
	// A Byzantine party sends conflicting EST1 votes to different parties;
	// agreement must hold among honest parties.
	for seed := int64(0); seed < 6; seed++ {
		const n, f = 4, 1
		byz := map[int]bool{3: true}
		fx := setup(t, n, f, seed+50, harness.Options{Byzantine: byz}, testCoins("equiv"))
		inputs := map[int]byte{0: 0, 1: 1, 2: 0}
		fx.start(inputs)
		// Equivocate in round 1 and inject bogus FINISH votes.
		for to := 0; to < 3; to++ {
			v := byte(to % 2)
			fx.c.Net.Inject(3, to, "aba", []byte{msgEST1, 0, 0, 0, 1, v})
			fx.c.Net.Inject(3, to, "aba", []byte{msgAUX1, 0, 0, 0, 1, v})
			fx.c.Net.Inject(3, to, "aba", []byte{msgFINISH, v})
		}
		if err := fx.c.Net.Run(3_000_000, func() bool { return len(fx.outs) == 3 }); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		fx.checkAgreementValidity(t, inputs, 3)
	}
}

func TestMalformedMessagesRejected(t *testing.T) {
	const n, f = 4, 1
	fx := setup(t, n, f, 60, harness.Options{}, testCoins("mal"))
	fx.c.Net.Inject(3, 0, "aba", []byte{})                       // empty
	fx.c.Net.Inject(3, 0, "aba", []byte{99, 0})                  // unknown tag
	fx.c.Net.Inject(3, 0, "aba", []byte{msgEST1, 0, 0, 0, 1, 7}) // bad value
	fx.c.Net.Inject(3, 0, "aba", []byte{msgEST1, 0, 0, 0, 0, 1}) // round 0
	inputs := map[int]byte{0: 1, 1: 1, 2: 1, 3: 1}
	fx.start(inputs)
	if err := fx.c.Net.Run(1_000_000, func() bool { return len(fx.outs) == n }); err != nil {
		t.Fatal(err)
	}
	if fx.c.Net.Metrics().Rejected < 4 {
		t.Fatalf("rejected = %d, want ≥ 4", fx.c.Net.Metrics().Rejected)
	}
}

func coinConfig() coin.Config { return coin.Config{} }

func TestFinishEquivocationNotBooked(t *testing.T) {
	// Party 3 FINISHes 0 and then 1: the second vote is one piece of
	// equivocation evidence and must not count toward FINISH(1), or one
	// more FINISH(1) would reach f+1 and make party 0 relay it.
	const n, f = 4, 1
	fx := setup(t, n, f, 1, harness.Options{Byzantine: map[int]bool{3: true}}, testCoins("finish"))
	a := fx.insts[0]
	a.Handle(3, []byte{msgFINISH, 0})
	a.Handle(3, []byte{msgFINISH, 0}) // a same-bit repeat is silent
	a.Handle(3, []byte{msgFINISH, 1})
	if got := fx.c.Net.Metrics().Equivocations; got != 1 {
		t.Fatalf("%d equivocations, want 1", got)
	}
	if a.finish.Readied(1, 3) || !a.finish.Readied(0, 3) {
		t.Fatal("FINISH(1) booked after FINISH(0) from the same sender")
	}
	a.Handle(2, []byte{msgFINISH, 1})
	if a.finishSent {
		t.Fatal("relayed FINISH(1) on one honest vote plus an equivocation")
	}
}

func TestStageDomains(t *testing.T) {
	// Stage 1 carries {0,1}, stage 2 {0,1,⊥}; a value outside a stage's
	// domain is rejected, and a second AUX from one sender in one stage is
	// equivocation evidence only when its value differs.
	const n, f = 4, 1
	fx := setup(t, n, f, 1, harness.Options{Byzantine: map[int]bool{3: true}}, testCoins("domains"))
	a := fx.insts[0]
	m := fx.c.Net.Metrics
	for _, tag := range []byte{msgEST1, msgAUX1} {
		a.Handle(3, []byte{tag, 0, 0, 0, 1, bot})
	}
	if got := m().Rejected; got != 2 {
		t.Fatalf("%d rejects for ⊥ in stage 1, want 2", got)
	}
	a.Handle(3, []byte{msgEST2, 0, 0, 0, 1, bot})
	a.Handle(3, []byte{msgAUX2, 0, 0, 0, 1, bot})
	if got := m().Rejected; got != 2 {
		t.Fatalf("⊥ rejected in stage 2 (%d rejects)", got)
	}
	if st := a.state(1).stage[1]; !st.ests[bot][3] || st.auxes[3] != bot {
		t.Fatal("stage-2 ⊥ EST/AUX not recorded")
	}
	for _, tag := range []byte{msgEST2, msgAUX2} {
		a.Handle(3, []byte{tag, 0, 0, 0, 1, 3})
	}
	if got := m().Rejected; got != 4 {
		t.Fatalf("%d rejects after value 3 in stage 2, want 4", got)
	}
	rounds := len(a.rounds)
	a.Handle(3, []byte{msgEST1, 0, 0, 0, 9, 7}) // out of domain, in a fresh round
	if got := m().Rejected; got != 5 || len(a.rounds) != rounds {
		t.Fatalf("%d rejects, %d rounds after an out-of-domain EST for round 9, want 5 and %d", got, len(a.rounds), rounds)
	}
	a.Handle(3, []byte{msgAUX1, 0, 0, 0, 1, 0})
	a.Handle(3, []byte{msgAUX1, 0, 0, 0, 1, 0}) // a same-value repeat is silent
	a.Handle(3, []byte{msgAUX2, 0, 0, 0, 1, bot})
	if got := m().Equivocations; got != 0 {
		t.Fatalf("%d equivocations on same-value repeats, want 0", got)
	}
	a.Handle(3, []byte{msgAUX1, 0, 0, 0, 1, 1})
	a.Handle(3, []byte{msgAUX2, 0, 0, 0, 1, 0})
	if got := m().Equivocations; got != 2 {
		t.Fatalf("%d equivocations on conflicting AUX1 and AUX2 repeats, want 2", got)
	}
	// The codec is the format, and decoding through it allocates nothing.
	aux := Msg{Round: 1, AUX: true}.Bytes()
	if !bytes.Equal(aux, []byte{msgAUX1, 0, 0, 0, 1, 0}) {
		t.Fatalf("AUX1(1, 0) encodes to %x", aux)
	}
	if allocs := testing.AllocsPerRun(100, func() { a.Handle(3, aux) }); allocs != 0 {
		t.Fatalf("a repeated AUX allocates %.0f times per receipt", allocs)
	}
}

// AdversarialCoins returns a worst-case coin for safety testing: each party
// receives an independent pseudorandom bit (maximal disagreement). Safety
// must hold even under it; termination degrades gracefully.
func AdversarialCoins(sessionSeed string, self int) CoinFactory {
	return func(round int, out func(byte)) func() {
		return func() {
			h := sha256.Sum256([]byte(fmt.Sprintf("advcoin/%s/%d/%d", sessionSeed, round, self)))
			out(h[0] & 1)
		}
	}
}
