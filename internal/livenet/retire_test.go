package livenet

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/proto"
	"repro/internal/sim"
)

// TestRetireOnBothRuntimes pins the one routing table: on the simulator and
// on a live Network, Retire drops the handlers under a prefix, the frames
// already parked for it and every late one, refuses later registrations
// under it, and leaves a sibling path that merely shares its text alone.
func TestRetireOnBothRuntimes(t *testing.T) {
	scenario := func(t *testing.T, rt func(i int) proto.Runtime, do func(i int, fn func()), settle func()) {
		t.Helper()
		var hits atomic.Int64
		count := proto.HandlerFunc(func(int, []byte) { hits.Add(1) })
		do(1, func() { rt(1).Register("r/a", count) })
		do(0, func() { rt(0).Send("r/b", 1, []byte("parked")) })
		settle()
		do(1, func() { rt(1).Retire("r") })
		do(0, func() {
			for _, inst := range []string{"r", "r/a", "r/b"} {
				rt(0).Send(inst, 1, []byte("late"))
			}
		})
		settle()
		do(1, func() { rt(1).Register("r/b", count) })
		do(0, func() { rt(0).Send("r/b", 1, []byte("after re-register")) })
		settle()
		if got := hits.Load(); got != 0 {
			t.Fatalf("%d messages under the retired prefix reached a handler", got)
		}
		do(1, func() { rt(1).Register("rs", count) })
		do(0, func() { rt(0).Send("rs", 1, []byte("sibling")) })
		settle()
		if got := hits.Load(); got != 1 {
			t.Fatalf("sibling path rs handled %d messages, want 1", got)
		}
	}

	t.Run("sim", func(t *testing.T) {
		nw := sim.New(sim.Config{N: 2, Seed: 1})
		scenario(t,
			func(i int) proto.Runtime { return nw.Node(i) },
			func(_ int, fn func()) { fn() },
			func() {
				if err := nw.RunAll(100); err != nil {
					t.Fatal(err)
				}
			})
		// Dropped, not parked: a stall names no path waiting for a handler.
		var stall *sim.StallError
		if err := nw.Run(100, func() bool { return false }); !errors.As(err, &stall) || len(stall.Pending) != 0 {
			t.Fatalf("want a drained stall with nothing parked, got %v", err)
		}
	})

	t.Run("livenet", func(t *testing.T) {
		nw, err := New(Config{N: 2, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer nw.Close()
		// Node 1 processes its queue in order, and the Channels link without
		// jitter enqueues node 0's sends in send order: once node 1 handled a
		// sync message, it has routed everything node 0 sent before it.
		synced := make(chan struct{}, 1)
		nw.Node(1).Register("sync", proto.HandlerFunc(func(int, []byte) { synced <- struct{}{} }))
		scenario(t,
			func(i int) proto.Runtime { return nw.Node(i) },
			func(i int, fn func()) { nw.Node(i).Do(fn) },
			func() {
				nw.Node(0).Do(func() { nw.Node(0).Send("sync", 1, nil) })
				collect(t, synced, 1, 5*time.Second)
			})
	})
}
