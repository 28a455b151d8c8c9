package exp

// Reconnect coverage on the live TCP runtime: a forced connection kill
// mid-VBA must not prevent decision, lose frames, or produce outcomes that
// diverge from the deterministic simulator — the crash/recovery seed for
// the adversary-realism roadmap item.

import (
	"context"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/livenet"
)

// TestTCPVBASurvivesSeverAndMatchesSim kills a live inter-node connection
// while a VBA is in flight on real TCP loopback. The transport must redial
// and resync so the instance still decides the (validity-pinned) value the
// simulator run from the same seed decides, and a follow-up election on the
// same healed cluster must terminate in agreement. Its leader is not pinned:
// it depends on which parties' coin shares each party saw first, so a live
// run with a lagging party may legitimately elect another leader than the
// simulator.
func TestTCPVBASurvivesSeverAndMatchesSim(t *testing.T) {
	const n, f = 4, 1
	const seed = 90
	genesis := []byte("reconnect")
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	pinned := make([][]byte, n)
	for i := range pinned {
		pinned[i] = []byte("ok:pinned")
	}
	valid := func(v []byte) bool { return true }

	// Simulator reference run.
	sim, err := harness.NewCluster(n, f, seed, harness.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	sv := LaunchPaperVBA(sim, "kv", pinned, valid, genesis)
	if err := sv.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	simVBA := sv.Outcome()

	// Live TCP run with a connection kill mid-VBA.
	live, err := harness.NewLiveCluster(n, f, seed, harness.LiveOptions{Transport: livenet.TCP})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	lv := LaunchPaperVBA(live, "kv", pinned, valid, genesis)
	// Kill a live socket while the instance is in flight. During startup
	// the link may still be dialing (Sever reports false); retry so the
	// test always kills an attached connection.
	deadline := time.Now().Add(10 * time.Second)
	for !live.Sever(1, 2) {
		if time.Now().After(deadline) {
			t.Fatal("link 1→2 never came up to sever")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := lv.Wait(ctx); err != nil {
		t.Fatalf("VBA did not decide after connection kill: %v", err)
	}
	liveVBA := lv.Outcome()
	if !liveVBA.Agreed {
		t.Fatal("live parties disagreed after reconnect")
	}
	if string(liveVBA.Value) != string(simVBA.Value) {
		t.Fatalf("live decided %q, sim decided %q", liveVBA.Value, simVBA.Value)
	}

	// The healed cluster must keep deciding: a follow-up election whose live
	// parties all elect the same leader.
	le := LaunchPaperElection(live, "ke", genesis)
	if err := le.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if liveEl := le.Outcome(); !liveEl.Agreed {
		t.Fatalf("post-reconnect election: live parties disagree (first party elected %d)", liveEl.Leader)
	}

	st := live.TCPStats()
	if st.Redials == 0 {
		t.Fatal("severed connection recovered without a recorded redial")
	}
	if st.Dropped != 0 {
		t.Fatalf("transport dropped %d frames despite reconnect", st.Dropped)
	}
	for from := 0; from < n; from++ {
		for to := 0; to < n; to++ {
			if from != to && live.Live.PeerDrops(from, to) != 0 {
				t.Fatalf("link %d→%d booked peer drops after benign sever", from, to)
			}
		}
	}
}
