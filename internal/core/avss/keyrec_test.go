package avss

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/crypto/field"
	"repro/internal/crypto/poly"
	"repro/internal/harness"
	"repro/internal/sim"
	"repro/internal/wire"
)

// The KeyRec share decision (validKeyShare) answers from field arithmetic
// wherever that is provably the Pedersen check's answer. These tests pin the
// contract from outside: the same shares are refused and accepted, and
// Reject fires exactly as often, as when every share went through
// Commitment.VerifyShare. The expected reject counts are hard-coded from the
// commit before this decision existed, which put every share through the
// group check, running these very scenarios.

var recSecret = []byte("key reconstruction contract")

// recFixture is a cluster whose last f parties are Byzantine and silent (the
// test speaks for them), with AVSS-Sh by dealer 0 completed and drained, so
// every honest party holds a verified key share.
type recFixture struct {
	*fixture
	n, f   int
	honest int
}

func newRecFixture(t testing.TB, n int, seed int64, sched sim.Scheduler) *recFixture {
	t.Helper()
	f := (n - 1) / 3
	fx := setup(t, n, f, seed, 0, harness.Options{
		Scheduler: sched,
		Byzantine: harness.LastFByzantine(n, f),
	})
	fx.insts[0].StartDealer(recSecret)
	r := &recFixture{fixture: fx, n: n, f: f, honest: n - f}
	r.drain(t)
	if len(fx.shares) != r.honest {
		t.Fatalf("sharing completed at %d of %d honest parties", len(fx.shares), r.honest)
	}
	r.eachHonest(func(i int, a *AVSS) {
		if !a.hasShare {
			t.Fatalf("party %d holds no key share", i)
		}
	})
	if got := r.rejects(); got != 0 {
		t.Fatalf("%d rejects during an honest sharing", got)
	}
	return r
}

func (r *recFixture) drain(t testing.TB) {
	t.Helper()
	if err := r.c.Net.RunAll(2_000_000); err != nil {
		t.Fatal(err)
	}
}

func (r *recFixture) rejects() int64 { return r.c.Net.Metrics().Rejected }

func (r *recFixture) eachHonest(fn func(i int, a *AVSS)) {
	r.c.EachHonest(func(i int) { fn(i, r.insts[i]) })
}

// trueShare is party j's share as the (honest) dealer computed it.
func (r *recFixture) trueShare(j int) keyShare {
	d := r.insts[0]
	return keyShare{d.dealPoly.Eval(poly.X(j)), d.blindPoly.Eval(poly.X(j))}
}

// wrongShares are the ways party j can lie about its share: either half off
// by one, both, the halves swapped, another party's true share.
func (r *recFixture) wrongShares(j int) []keyShare {
	s, one := r.trueShare(j), field.One()
	return []keyShare{
		{s.a.Add(one), s.b},
		{s.a, s.b.Add(one)},
		{s.a.Add(one), s.b.Sub(one)},
		{s.b, s.a},
		r.trueShare((j + 1) % r.n),
	}
}

func keyRecMsg(sh keyShare) []byte {
	var w wire.Writer
	w.Byte(msgKeyRec)
	w.Bytes32(sh.a.Bytes())
	w.Bytes32(sh.b.Bytes())
	return w.Bytes()
}

// tell delivers sh as from's KeyRec to every honest party.
func (r *recFixture) tell(from int, sh keyShare) {
	r.c.EachHonest(func(to int) { r.c.Net.Inject(from, to, "avss", keyRecMsg(sh)) })
}

func (r *recFixture) startRec() { r.eachHonest(func(_ int, a *AVSS) { a.StartRec() }) }

// checkReconstructed requires every honest party to have output the dealer's
// secret and to hold want members in Φ.
func (r *recFixture) checkReconstructed(t testing.TB, wantPhi int) {
	t.Helper()
	if len(r.recs) != r.honest {
		t.Fatalf("%d of %d honest parties reconstructed", len(r.recs), r.honest)
	}
	r.eachHonest(func(i int, a *AVSS) {
		if !bytes.Equal(r.recs[i], recSecret) {
			t.Fatalf("party %d reconstructed %q", i, r.recs[i])
		}
		if !a.keySent {
			t.Fatalf("party %d never sent Key", i)
		}
		if len(a.phi) != wantPhi {
			t.Fatalf("party %d: |Φ| = %d, want %d", i, len(a.phi), wantPhi)
		}
	})
}

// deliveryOrders are the schedules every scenario runs under; a nil
// scheduler is the seeded uniform-random default.
var deliveryOrders = []struct {
	name  string
	sched sim.Scheduler
}{
	{"random", nil},
	{"fifo", sim.FIFOScheduler()},
	{"lifo", sim.LIFOScheduler()},
}

// forEachShape runs fn at n = 4 and n = 7 under every delivery order and a
// few seeds.
func forEachShape(t *testing.T, fn func(t *testing.T, r *recFixture)) {
	for _, n := range []int{4, 7} {
		for _, o := range deliveryOrders {
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("n%d/%s/seed%d", n, o.name, seed), func(t *testing.T) {
					fn(t, newRecFixture(t, n, seed, o.sched))
				})
			}
		}
	}
}

// A wrong share that arrives before anything else meets the group check: it
// is rejected, Φ stays empty, and reconstruction completes from the honest
// shares alone.
func TestKeyRecWrongShareFirst(t *testing.T) {
	forEachShape(t, func(t *testing.T, r *recFixture) {
		liar := r.n - 1
		wrong := r.wrongShares(liar)
		for _, sh := range wrong {
			r.tell(liar, sh)
		}
		r.drain(t)
		want := map[int]int64{4: 15, 7: 25}[r.n] // 5 lies × honest parties
		if got := r.rejects(); got != want {
			t.Fatalf("rejects = %d, want %d", got, want)
		}
		r.eachHonest(func(i int, a *AVSS) {
			if len(a.phi) != 0 || a.keySent {
				t.Fatalf("party %d took a wrong share into Φ", i)
			}
		})
		r.startRec()
		r.drain(t)
		r.checkReconstructed(t, r.honest)
		if got := r.rejects(); got != want {
			t.Fatalf("rejects after reconstruction = %d, want %d", got, want)
		}
	})
}

// A wrong share that arrives after Key was sent is decided without a group
// operation — and is still rejected, sends nothing and changes no output;
// the liar's true share is then still accepted into Φ, and after that the
// liar is a duplicate and ignored, not rejected.
func TestKeyRecWrongShareAfterKeySent(t *testing.T) {
	forEachShape(t, func(t *testing.T, r *recFixture) {
		r.startRec()
		r.drain(t)
		r.checkReconstructed(t, r.honest)
		if got := r.rejects(); got != 0 {
			t.Fatalf("%d rejects in an honest reconstruction", got)
		}
		sent := r.c.Net.Metrics().Honest.Msgs

		liar := r.n - 1
		wrong := r.wrongShares(liar)
		for _, sh := range wrong {
			r.tell(liar, sh)
		}
		r.drain(t)
		want := map[int]int64{4: 15, 7: 25}[r.n] // 5 lies × honest parties
		if got := r.rejects(); got != want {
			t.Fatalf("rejects = %d, want %d", got, want)
		}
		r.checkReconstructed(t, r.honest)

		r.tell(liar, r.trueShare(liar))
		r.drain(t)
		r.checkReconstructed(t, r.honest+1)
		r.tell(liar, wrong[0])
		r.drain(t)
		if got := r.rejects(); got != want {
			t.Fatalf("rejects after the true share and a duplicate = %d, want %d", got, want)
		}
		if got := r.c.Net.Metrics().Honest.Msgs; got != sent {
			t.Fatalf("late KeyRecs made honest parties send %d messages", got-sent)
		}
	})
}

// Wrong shares in flight together with the honest ones land before Key at
// some parties and after it at others, depending on the order; either way
// each honest party rejects each of them exactly once.
func TestKeyRecWrongShareRacing(t *testing.T) {
	forEachShape(t, func(t *testing.T, r *recFixture) {
		for liar := r.n - r.f; liar < r.n; liar++ {
			for _, sh := range r.wrongShares(liar) {
				r.tell(liar, sh)
			}
		}
		r.startRec()
		r.drain(t)
		r.checkReconstructed(t, r.honest)
		want := map[int]int64{4: 15, 7: 50}[r.n] // f liars × 5 lies × honest parties
		if got := r.rejects(); got != want {
			t.Fatalf("rejects = %d, want %d", got, want)
		}
	})
}

// A KeyRec carrying the party's own index is trusted only when it is the
// stored pair: anything else from self takes the normal check and fails it.
func TestKeyRecFromSelfNotTrusted(t *testing.T) {
	forEachShape(t, func(t *testing.T, r *recFixture) {
		r.eachHonest(func(i int, _ *AVSS) {
			for _, sh := range r.wrongShares(i) {
				r.c.Net.Inject(i, i, "avss", keyRecMsg(sh))
			}
		})
		r.drain(t)
		want := map[int]int64{4: 15, 7: 25}[r.n] // 5 lies at each honest party
		if got := r.rejects(); got != want {
			t.Fatalf("rejects = %d, want %d", got, want)
		}
		r.eachHonest(func(i int, a *AVSS) {
			if len(a.phi) != 0 {
				t.Fatalf("party %d trusted a share because it came from itself", i)
			}
		})
		r.startRec()
		r.drain(t)
		r.checkReconstructed(t, r.honest)
		r.eachHonest(func(i int, a *AVSS) {
			own, want := a.phi[i], r.trueShare(i)
			if !own.a.Equal(want.a) || !own.b.Equal(want.b) {
				t.Fatalf("party %d holds a wrong share of its own in Φ", i)
			}
		})
		if got := r.rejects(); got != want {
			t.Fatalf("rejects after reconstruction = %d, want %d", got, want)
		}
	})
}

// validKeyShare is the Pedersen check's verdict for every party index and
// every kind of share, before Φ pins the polynomials and after.
func TestValidKeyShareMatchesVerifyShare(t *testing.T) {
	for _, n := range []int{4, 7} {
		r := newRecFixture(t, n, 5, nil)
		compare := func(stage string) {
			r.eachHonest(func(i int, a *AVSS) {
				for j := 0; j < n; j++ {
					for k, sh := range append(r.wrongShares(j), r.trueShare(j)) {
						want := a.cmt.VerifyShare(j, sh.a, sh.b)
						if got := a.validKeyShare(j, sh); got != want {
							t.Fatalf("n=%d %s: party %d on share %d of party %d: %v, VerifyShare says %v",
								n, stage, i, k, j, got, want)
						}
					}
				}
			})
		}
		compare("before Key")
		r.startRec()
		r.drain(t)
		r.checkReconstructed(t, r.honest)
		compare("after Key")
	}
}

// BenchmarkAVSSReconstruct is one AVSS on the simulator, share then
// reconstruct, all n parties honest.
func BenchmarkAVSSReconstruct(b *testing.B) {
	for _, n := range []int{4, 7} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			c, err := harness.NewCluster(n, -1, 1, harness.Options{})
			if err != nil {
				b.Fatal(err)
			}
			k := 0
			b.ReportAllocs()
			for b.Loop() {
				fx := launch(c, fmt.Sprintf("avss/%d", k), 0)
				k++
				fx.insts[0].StartDealer(recSecret)
				if err := c.Net.Run(2_000_000, func() bool { return len(fx.shares) == n }); err != nil {
					b.Fatal(err)
				}
				for _, a := range fx.insts {
					a.StartRec()
				}
				if err := c.Net.RunAll(2_000_000); err != nil {
					b.Fatal(err)
				}
				if len(fx.recs) != n {
					b.Fatalf("%d of %d parties reconstructed", len(fx.recs), n)
				}
			}
		})
	}
}
