package livenet

import (
	"testing"
	"time"

	"repro/internal/core/rbc"
	"repro/internal/proto"
	"repro/internal/sim"
)

// TestTallyMatchesAcrossEnvironments pins the one traffic meter: one
// all-honest Bracha broadcast at n = 4 sends a schedule-independent set of
// messages (the sender's proposal, then one echo and one ready multicast
// per party), so the simulator, Network over Channels, Network over TCP and
// four NewParty endpoints connected as noded processes are must book the
// same per-instance and total tallies.
func TestTallyMatchesAcrossEnvironments(t *testing.T) {
	const n, f, tag = 4, 1, "tally"
	value := []byte("one meter for every environment")

	type tallies struct{ inst, total proto.Tally }
	// runLive broadcasts once over n dispatcher-driven runtimes and reads
	// the tallies once every party handled all 2n+1 messages it will ever
	// receive: then every message has been sent, and so booked.
	runLive := func(t *testing.T, node func(i int) *Node, read func() tallies) tallies {
		t.Helper()
		handled := make(chan struct{}, n*(2*n+1))
		for i := 0; i < n; i++ {
			nd := node(i)
			nd.Do(func() {
				r := rbc.New(counted{nd, handled}, tag+"/rbc", 0, func([]byte) {})
				if i == 0 {
					r.Start(value)
				}
			})
		}
		collect(t, handled, n*(2*n+1), 20*time.Second)
		return read()
	}

	snw := sim.New(sim.Config{N: n, F: f, Seed: 1})
	for i := 0; i < n; i++ {
		r := rbc.New(snw.Node(i), tag+"/rbc", 0, func([]byte) {})
		if i == 0 {
			r.Start(value)
		}
	}
	if err := snw.RunAll(sim.DefaultDeliveryBudget); err != nil {
		t.Fatal(err)
	}
	want := tallies{snw.Metrics().Honest.ByInstance(tag), snw.Metrics().Honest.Tally}
	if want.inst.Msgs != 2*n*n+n {
		t.Fatalf("simulator booked %d messages, want %d", want.inst.Msgs, 2*n*n+n)
	}

	for _, tr := range []Transport{Channels, TCP} {
		nw, err := New(Config{N: n, F: f, Seed: 2, Transport: tr, Jitter: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		got := runLive(t, nw.Node, func() tallies { return tallies{nw.ByInstance(tag), nw.TotalTally()} })
		nw.Close()
		if got != want {
			t.Fatalf("Network over transport %d booked %+v, simulator %+v", tr, got, want)
		}
	}

	auth, err := DeriveAuth(n, 3)
	if err != nil {
		t.Fatal(err)
	}
	parties := make([]*Party, n)
	addrs := make([]string, n)
	for i := range parties {
		p, err := NewParty(PartyConfig{Self: i, N: n, F: f, Key: auth.Keys[i], Board: auth.Board, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		parties[i], addrs[i] = p, p.Addr()
	}
	for _, p := range parties {
		if err := p.Connect(addrs); err != nil {
			t.Fatal(err)
		}
	}
	got := runLive(t, func(i int) *Node { return parties[i].Node() }, func() tallies {
		var s tallies
		for _, p := range parties {
			it, tt := p.ByInstance(tag), p.TotalTally()
			s.inst.Msgs, s.inst.Bytes = s.inst.Msgs+it.Msgs, s.inst.Bytes+it.Bytes
			s.total.Msgs, s.total.Bytes = s.total.Msgs+tt.Msgs, s.total.Bytes+tt.Bytes
		}
		return s
	})
	if got != want {
		t.Fatalf("connected parties booked %+v, simulator %+v", got, want)
	}
}

// counted reports every message its runtime's handlers take.
type counted struct {
	proto.Runtime
	handled chan<- struct{}
}

func (c counted) Register(inst string, h proto.Handler) {
	c.Runtime.Register(inst, proto.HandlerFunc(func(from int, body []byte) {
		h.Handle(from, body)
		c.handled <- struct{}{}
	}))
}
