package avss

import (
	"bytes"
	"testing"

	"repro/internal/crypto/field"
	"repro/internal/crypto/poly"
	"repro/internal/harness"
	"repro/internal/sim"
	"repro/internal/wire"
)

type fixture struct {
	c       *harness.Cluster
	insts   []*AVSS
	shares  map[int]ShareOutput
	recs    map[int][]byte
	shareRd map[int]int // causal depth at sharing output
}

func setup(t testing.TB, n, f int, seed int64, dealer int, opts harness.Options) *fixture {
	t.Helper()
	c, err := harness.NewCluster(n, f, seed, opts)
	if err != nil {
		t.Fatal(err)
	}
	return launch(c, "avss", dealer)
}

// launch registers one AVSS instance per honest party under inst.
func launch(c *harness.Cluster, inst string, dealer int) *fixture {
	fx := &fixture{
		c:       c,
		insts:   make([]*AVSS, c.N),
		shares:  make(map[int]ShareOutput),
		recs:    make(map[int][]byte),
		shareRd: make(map[int]int),
	}
	c.EachHonest(func(i int) {
		fx.insts[i] = New(c.Net.Node(i), inst, c.Keys[i], dealer,
			func(out ShareOutput) {
				fx.shares[i] = out
				fx.shareRd[i] = c.Net.Node(i).Depth()
			},
			func(m []byte) { fx.recs[i] = m },
		)
	})
	return fx
}

func TestShareCompletesWithHonestDealer(t *testing.T) {
	fx := setup(t, 4, 1, 1, 0, harness.Options{})
	secret := []byte("the avss secret payload")
	fx.insts[0].StartDealer(secret)
	err := fx.c.Net.Run(1_000_000, func() bool { return len(fx.shares) == 4 })
	if err != nil {
		t.Fatal(err)
	}
	var cipher []byte
	for i, out := range fx.shares {
		if cipher == nil {
			cipher = out.Cipher
		} else if !bytes.Equal(cipher, out.Cipher) {
			t.Fatalf("node %d has different cipher (Lemma 1 violated)", i)
		}
	}
}

func TestReconstructRecoversDealerSecret(t *testing.T) {
	for _, n := range []int{4, 7} {
		f := (n - 1) / 3
		fx := setup(t, n, f, int64(n)*7, 1, harness.Options{})
		secret := []byte("correctness: m* == m (Lemma 6)")
		fx.insts[1].StartDealer(secret)
		err := fx.c.Net.Run(2_000_000, func() bool { return len(fx.shares) == n })
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			fx.insts[i].StartRec()
		}
		err = fx.c.Net.Run(2_000_000, func() bool { return len(fx.recs) == n })
		if err != nil {
			t.Fatal(err)
		}
		for i, m := range fx.recs {
			if !bytes.Equal(m, secret) {
				t.Fatalf("n=%d node %d reconstructed %q", n, i, m)
			}
		}
	}
}

func TestToleratesFCrashedParties(t *testing.T) {
	const n, f = 7, 2
	byz := harness.LastFByzantine(n, f)
	fx := setup(t, n, f, 5, 0, harness.Options{Byzantine: byz, Crash: true})
	fx.insts[0].StartDealer([]byte("crash tolerant"))
	honest := n - f
	if err := fx.c.Net.Run(2_000_000, func() bool { return len(fx.shares) == honest }); err != nil {
		t.Fatal(err)
	}
	fx.c.EachHonest(func(i int) { fx.insts[i].StartRec() })
	if err := fx.c.Net.Run(2_000_000, func() bool { return len(fx.recs) == honest }); err != nil {
		t.Fatal(err)
	}
	for _, m := range fx.recs {
		if !bytes.Equal(m, []byte("crash tolerant")) {
			t.Fatal("wrong reconstruction with crashes")
		}
	}
}

// TestTotality: once one honest party outputs in AVSS-Sh, all do (Lemma 2).
// The dealer is Byzantine-ish: honest protocol but network delays one party
// heavily; outputs must still converge.
func TestTotalityUnderAdversarialScheduling(t *testing.T) {
	const n, f = 4, 1
	fx := setup(t, n, f, 6, 0, harness.Options{
		Scheduler: sim.DelayScheduler{Slow: map[int]bool{3: true}, Bias: 0.9},
	})
	fx.insts[0].StartDealer([]byte("totality"))
	if err := fx.c.Net.Run(2_000_000, func() bool { return len(fx.shares) == n }); err != nil {
		t.Fatal(err)
	}
}

// TestCommitmentBinding: after sharing completes, reconstruction yields the
// same m* at every party even when f Byzantine parties feed garbage KeyRec
// shares (they are filtered by the Pedersen check).
func TestReconstructionRejectsBadShares(t *testing.T) {
	const n, f = 4, 1
	byz := map[int]bool{3: true}
	fx := setup(t, n, f, 7, 0, harness.Options{Byzantine: byz})
	fx.insts[0].StartDealer([]byte("binding"))
	if err := fx.c.Net.Run(2_000_000, func() bool { return len(fx.shares) == 3 }); err != nil {
		t.Fatal(err)
	}
	// Byzantine party 3 injects bogus KeyRec shares to everyone.
	bad := field.FromUint64(12345)
	for to := 0; to < 3; to++ {
		var w wire.Writer
		w.Byte(msgKeyRec)
		w.Bytes32(bad.Bytes())
		w.Bytes32(bad.Bytes())
		fx.c.Net.Inject(3, to, "avss", w.Bytes())
	}
	fx.c.EachHonest(func(i int) { fx.insts[i].StartRec() })
	if err := fx.c.Net.Run(2_000_000, func() bool { return len(fx.recs) == 3 }); err != nil {
		t.Fatal(err)
	}
	for i, m := range fx.recs {
		if !bytes.Equal(m, []byte("binding")) {
			t.Fatalf("node %d reconstructed %q despite bad shares", i, m)
		}
	}
}

// TestSecrecyShape: before reconstruction begins, f parties' key shares plus
// all public traffic do not determine the key (information-theoretic
// argument of Lemma 7) — verified structurally: f shares of the degree-f
// key polynomial extend to any candidate key.
func TestSecrecyShape(t *testing.T) {
	const n, f = 7, 2
	fx := setup(t, n, f, 8, 0, harness.Options{})
	fx.insts[0].StartDealer([]byte("secret"))
	if err := fx.c.Net.Run(2_000_000, func() bool { return len(fx.shares) == n }); err != nil {
		t.Fatal(err)
	}
	// Collect f of the parties' A-shares (the adversary's view).
	view := make([]poly.Share, 0, f)
	for i := 1; i <= f; i++ {
		out := fx.shares[i]
		if !out.HasShare {
			t.Fatalf("party %d missing share", i)
		}
		view = append(view, poly.Share{Index: i, Value: out.ShA})
	}
	// Any fake key is consistent with that view for some degree-f polynomial.
	fake := field.FromUint64(999)
	pts := append(view, poly.Share{Index: -1, Value: fake})
	ext, err := poly.Interpolate(pts)
	if err != nil {
		t.Fatal(err)
	}
	if !ext.Secret().Equal(fake) {
		t.Fatal("adversarial view pins the key — secrecy broken")
	}
}

func TestDealerEquivocationCannotSplitOutput(t *testing.T) {
	// A Byzantine dealer deals two different commitments to two halves.
	// Parties sign only what they saw; at most one commitment can gather
	// n−f signatures, so at most one cipher is echoed — outputs never split.
	const n, f = 4, 1
	for seed := int64(0); seed < 10; seed++ {
		byz := map[int]bool{0: true}
		c, err := harness.NewCluster(n, f, seed, harness.Options{Byzantine: byz})
		if err != nil {
			t.Fatal(err)
		}
		outs := make(map[int][]byte)
		for i := 1; i < n; i++ {
			i := i
			New(c.Net.Node(i), "avss", c.Keys[i], 0,
				func(out ShareOutput) { outs[i] = out.Cipher }, nil)
		}
		// Dealer 0 runs two separate honest dealer states and sends each
		// party shares from one of them.
		d1 := New(c.Net.Node(0), "avss-shadow1", c.Keys[0], 0, nil, nil)
		d2 := New(c.Net.Node(0), "avss-shadow2", c.Keys[0], 0, nil, nil)
		d1.StartDealer([]byte("vvvv1"))
		d2.StartDealer([]byte("vvvv2"))
		// Redirect shadow traffic: deliver shadow KeyShares under "avss".
		// Simplest faithful attack: craft KeyShare messages directly.
		relay := func(shadow *AVSS, to int) {
			var w wire.Writer
			w.Byte(msgKeyShare)
			w.Blob(shadow.dealCmt.Bytes())
			w.Bytes32(shadow.dealPoly.Eval(poly.X(to)).Bytes())
			w.Bytes32(shadow.blindPoly.Eval(poly.X(to)).Bytes())
			c.Net.Inject(0, to, "avss", w.Bytes())
		}
		relay(d1, 1)
		relay(d1, 2)
		relay(d2, 3)
		if err := c.Net.RunAll(1_000_000); err != nil {
			t.Fatal(err)
		}
		var first []byte
		for i, v := range outs {
			if first == nil {
				first = v
			} else if !bytes.Equal(first, v) {
				t.Fatalf("seed %d: node %d split output", seed, i)
			}
		}
	}
}

func TestConstantRounds(t *testing.T) {
	const n, f = 7, 2
	fx := setup(t, n, f, 9, 0, harness.Options{})
	fx.insts[0].StartDealer([]byte("rounds"))
	if err := fx.c.Net.Run(2_000_000, func() bool { return len(fx.shares) == n }); err != nil {
		t.Fatal(err)
	}
	for i, d := range fx.shareRd {
		if d > 6 {
			t.Fatalf("node %d output at depth %d, want ≤ 6 (constant rounds)", i, d)
		}
	}
}

func TestCommunicationQuadratic(t *testing.T) {
	bytesFor := func(n int, seed int64) int64 {
		f := (n - 1) / 3
		fx := setup(t, n, f, seed, 0, harness.Options{})
		fx.insts[0].StartDealer(make([]byte, 32))
		if err := fx.c.Net.Run(5_000_000, func() bool { return len(fx.shares) == n }); err != nil {
			t.Fatal(err)
		}
		return fx.c.Net.Metrics().Honest.Bytes
	}
	b4 := bytesFor(4, 11)
	b10 := bytesFor(10, 12)
	// O(λn²): 4→10 should grow ≈ (10/4)² = 6.25; allow generous slack but
	// rule out cubic growth (15.6×).
	ratio := float64(b10) / float64(b4)
	if ratio > 11 {
		t.Fatalf("AVSS growth 4→10 is %.1f×, larger than quadratic", ratio)
	}
}
