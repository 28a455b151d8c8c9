package repro

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

// sessionDecisions is what one fixed session program decides: two ABAs
// with unanimous inputs and one VBA whose proposals coincide. Those
// decisions are pinned by the protocols' validity properties, so they must
// come out identical on every runtime.
type sessionDecisions struct {
	bit0, bit1 byte
	value      string
}

func runSessionProgram(t *testing.T, kind RuntimeKind) sessionDecisions {
	t.Helper()
	opts := []Option{
		WithRuntime(kind),
		WithSeed(77),
		WithGenesisNonce([]byte("equivalence")),
	}
	if kind == RuntimeLiveChannels {
		opts = append(opts, WithJitter(time.Millisecond))
	}
	c, err := NewCluster(4, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	h0, err := c.DecideBit("aba0", []byte{0, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	h1, err := c.DecideBit("aba1", []byte{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	batch := []byte("tx:shared-batch")
	hv, err := c.Agree("log", [][]byte{batch, batch, batch, batch},
		func(v []byte) bool { return bytes.HasPrefix(v, []byte("tx:")) })
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	r0, err := h0.Wait(ctx)
	if err != nil {
		t.Fatalf("aba0 on %v: %v", kind, err)
	}
	r1, err := h1.Wait(ctx)
	if err != nil {
		t.Fatalf("aba1 on %v: %v", kind, err)
	}
	rv, err := hv.Wait(ctx)
	if err != nil {
		t.Fatalf("vba on %v: %v", kind, err)
	}
	return sessionDecisions{bit0: r0.Bit, bit1: r1.Bit, value: string(rv.Value)}
}

// TestSessionSimLivenetEquivalence: the same session program — same seed,
// same inputs — produces identical decisions on the deterministic
// simulator and on the concurrent livenet-channels runtime.
func TestSessionSimLivenetEquivalence(t *testing.T) {
	want := sessionDecisions{bit0: 0, bit1: 1, value: "tx:shared-batch"}
	sim := runSessionProgram(t, RuntimeSim)
	if sim != want {
		t.Fatalf("sim decisions %+v, want %+v", sim, want)
	}
	live := runSessionProgram(t, RuntimeLiveChannels)
	if live != sim {
		t.Fatalf("runtime divergence: sim %+v vs livenet %+v", sim, live)
	}
}

// TestConcurrentInstancesOnSharedLiveCluster: ≥4 protocol instances run
// truly in parallel on one shared livenet cluster, launched and awaited
// from separate goroutines (the -race gate covers this path). Per-instance
// stats must be separated and sum to the cluster total.
func TestConcurrentInstancesOnSharedLiveCluster(t *testing.T) {
	c, err := NewCluster(4,
		WithRuntime(RuntimeLiveChannels),
		WithSeed(42),
		WithGenesisNonce([]byte("race")),
		WithJitter(time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const k = 5
	valid := func(v []byte) bool { return bytes.HasPrefix(v, []byte("ok:")) }
	results := make([]VBAResult, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for j := 0; j < k; j++ {
		props := make([][]byte, 4)
		for i := range props {
			props[i] = []byte(fmt.Sprintf("ok:i%d-p%d", j, i))
		}
		h, err := c.Agree(fmt.Sprintf("vba%d", j), props, valid)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(j int, h *VBAHandle) {
			defer wg.Done()
			results[j], errs[j] = h.Wait(context.Background())
		}(j, h)
	}
	wg.Wait()

	for j := 0; j < k; j++ {
		if errs[j] != nil {
			t.Fatalf("instance %d: %v", j, errs[j])
		}
		if !valid(results[j].Value) {
			t.Fatalf("instance %d decided invalid value %q", j, results[j].Value)
		}
		if results[j].Stats.Bytes == 0 {
			t.Fatalf("instance %d has no scoped traffic", j)
		}
	}
	// Every message belongs to some instance tag, so once the post-decision
	// protocol tails go quiescent the scoped tallies sum to the cluster
	// total exactly; poll briefly for that fixed point.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var sum int64
		for j := 0; j < k; j++ {
			sum += c.InstanceStats(fmt.Sprintf("vba%d", j)).Bytes
		}
		total := c.Stats().Bytes
		if sum == total {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("Σ instance bytes %d never converged to cluster total %d", sum, total)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestEightVBAsShare16PartyCluster is the session acceptance scenario: 8
// concurrent VBA instances complete on one shared 16-party cluster with a
// single PKI setup, per-instance stats are separated, and the instance
// tallies sum back to the cluster total.
func TestEightVBAsShare16PartyCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("16-party 8-instance session run takes ~1 min; skipped in -short")
	}
	c, err := NewCluster(16, WithSeed(2), WithGenesisNonce([]byte("acceptance")))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const k = 8
	valid := func(v []byte) bool { return bytes.HasPrefix(v, []byte("ok:")) }
	handles := make([]*VBAHandle, k)
	for j := 0; j < k; j++ {
		props := make([][]byte, 16)
		for i := range props {
			props[i] = []byte(fmt.Sprintf("ok:i%d-p%d", j, i))
		}
		if handles[j], err = c.Agree(fmt.Sprintf("slot%d", j), props, valid); err != nil {
			t.Fatal(err)
		}
	}
	var sum int64
	for j, h := range handles {
		res, err := h.Wait(context.Background())
		if err != nil {
			t.Fatalf("instance %d: %v", j, err)
		}
		if !valid(res.Value) {
			t.Fatalf("instance %d decided %q", j, res.Value)
		}
		sum += res.Stats.Bytes
	}
	if total := c.Stats().Bytes; sum != total {
		t.Fatalf("Σ instance bytes %d != cluster total %d", sum, total)
	}
}

// TestSessionTagDiscipline: instance tags multiplex the shared network, so
// the API rejects duplicates, path separators, empty tags, and launches on
// a closed cluster.
func TestSessionTagDiscipline(t *testing.T) {
	c, err := NewCluster(4, WithSeed(3), WithGenesisNonce([]byte("tags")))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.FlipCoin(""); err == nil {
		t.Fatal("accepted empty tag")
	}
	if _, err := c.FlipCoin("a/b"); err == nil {
		t.Fatal("accepted tag with '/'")
	}
	if _, err := c.FlipCoin("c1"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FlipCoin("c1"); err == nil {
		t.Fatal("accepted duplicate tag")
	}
	if _, err := c.ElectLeader("c1"); err == nil {
		t.Fatal("accepted tag already used by another protocol")
	}
	// A non-bit input is rejected before the tag is claimed.
	if _, err := c.DecideBit("b1", []byte{1, 0, 3, 1}); err == nil {
		t.Fatal("accepted non-bit input")
	}
	if _, err := c.DecideBit("b1", []byte{1, 0, 1, 1}); err != nil {
		t.Fatalf("tag claimed by a rejected launch: %v", err)
	}
	c.Close()
	if _, err := c.FlipCoin("c2"); err == nil {
		t.Fatal("accepted launch on closed cluster")
	}
}

// TestCloseFailsLiveWaiters: closing a live cluster fails a blocked Wait
// promptly — a shut-down network can never complete the instance, so the
// waiter must not sit out the full await timeout.
func TestCloseFailsLiveWaiters(t *testing.T) {
	c, err := NewCluster(4, WithRuntime(RuntimeLiveChannels), WithSeed(8),
		WithGenesisNonce([]byte("close")), WithJitter(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	h, err := c.FlipCoin("c")
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	start := time.Now()
	if _, err := h.Wait(context.Background()); err == nil {
		// The instance may have legitimately finished before Close; only a
		// nil error AFTER the dispatchers died would be wrong, and that is
		// indistinguishable here — so only assert on the error path below.
		return
	} else if time.Since(start) > 10*time.Second {
		t.Fatalf("Wait after Close took %v; should fail promptly", time.Since(start))
	}
}

// TestSessionOptionValidation: misconfigured clusters fail fast.
func TestSessionOptionValidation(t *testing.T) {
	if _, err := NewCluster(3); err == nil {
		t.Fatal("accepted N=3")
	}
	if _, err := NewCluster(4, WithCrashed(2)); err == nil {
		t.Fatal("accepted crashes > f")
	}
	if _, err := NewCluster(4, WithScheduler("bogus")); err == nil {
		t.Fatal("accepted unknown scheduler")
	}
	if _, err := NewCluster(4, WithRuntime(RuntimeLiveChannels), WithScheduler("lifo")); err == nil {
		t.Fatal("accepted scheduler on the live runtime")
	}
}

// TestSessionAdversarialScheduler: a session cluster under the LIFO
// adversary still completes concurrent instances (the scenario family the
// registry tracks as mux/vba-8x-lifo).
func TestSessionAdversarialScheduler(t *testing.T) {
	c, err := NewCluster(4, WithSeed(5), WithGenesisNonce([]byte("lifo")), WithScheduler("lifo"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	valid := func(v []byte) bool { return bytes.HasPrefix(v, []byte("ok:")) }
	var handles []*VBAHandle
	for j := 0; j < 3; j++ {
		props := make([][]byte, 4)
		for i := range props {
			props[i] = []byte(fmt.Sprintf("ok:%d-%d", j, i))
		}
		h, err := c.Agree(fmt.Sprintf("s%d", j), props, valid)
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	for j, h := range handles {
		if _, err := h.Wait(context.Background()); err != nil {
			t.Fatalf("instance %d under LIFO: %v", j, err)
		}
	}
}

// TestSessionClusterReuseAcrossWaits: sequential launch→wait→launch cycles
// on one cluster (the beacon-epochs usage pattern) reuse the network and
// keys; a later instance still completes after earlier ones finished.
func TestSessionClusterReuseAcrossWaits(t *testing.T) {
	c, err := NewCluster(4, WithSeed(6), WithGenesisNonce([]byte("reuse")))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var leaders []int
	for epoch := 0; epoch < 3; epoch++ {
		h, err := c.ElectLeader(fmt.Sprintf("epoch%d", epoch))
		if err != nil {
			t.Fatal(err)
		}
		res, err := h.Wait(context.Background())
		if err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
		leaders = append(leaders, res.Leader)
	}
	if len(leaders) != 3 {
		t.Fatalf("leaders = %v", leaders)
	}
}

// TestSessionTCPEquivalenceAndTransportStats: the same session program on
// the real-TCP runtime produces the validity-pinned decisions, and the
// public Stats surface exposes the transport counters (frames flowed,
// nothing dropped) that are zero on the other runtimes.
func TestSessionTCPEquivalenceAndTransportStats(t *testing.T) {
	want := sessionDecisions{bit0: 0, bit1: 1, value: "tx:shared-batch"}
	if got := runSessionProgram(t, RuntimeLiveTCP); got != want {
		t.Fatalf("TCP decisions %+v, want %+v", got, want)
	}

	c, err := NewCluster(4, WithRuntime(RuntimeLiveTCP), WithSeed(78), WithGenesisNonce([]byte("tcpstats")))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	h, err := c.DecideBit("aba", []byte{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	tr := c.Stats().Transport
	if tr.Frames == 0 || tr.Syscalls == 0 {
		t.Fatalf("TCP transport counters missing from Stats: %+v", tr)
	}
	if tr.Dropped != 0 || tr.AuthRejects != 0 {
		t.Fatalf("healthy TCP cluster booked faults: %+v", tr)
	}

	sim, err := NewCluster(4, WithSeed(78), WithGenesisNonce([]byte("tcpstats")))
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	if tr := sim.Stats().Transport; tr != (TransportStats{}) {
		t.Fatalf("simulator reported transport counters: %+v", tr)
	}
}
