package livenet

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core/aba"
	"repro/internal/core/coin"
	"repro/internal/core/election"
	"repro/internal/core/rbc"
	"repro/internal/pki"
	"repro/internal/proto"
)

func keysFor(t *testing.T, n int, seed int64) []*pki.Keyring {
	t.Helper()
	rings, _, err := pki.Setup(n, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return rings
}

func collect[T any](t *testing.T, ch <-chan T, n int, timeout time.Duration) []T {
	t.Helper()
	out := make([]T, 0, n)
	deadline := time.After(timeout)
	for len(out) < n {
		select {
		case v := <-ch:
			out = append(out, v)
		case <-deadline:
			t.Fatalf("timeout: %d of %d results after %v", len(out), n, timeout)
		}
	}
	return out
}

func TestPingPongOverChannels(t *testing.T) {
	nw, err := New(Config{N: 2, F: 0, Seed: 1, Jitter: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	got := make(chan string, 2)
	nw.Node(1).Register("x", proto.HandlerFunc(func(from int, body []byte) {
		got <- string(body)
		nw.Node(1).Send("x", from, []byte("pong"))
	}))
	nw.Node(0).Register("x", proto.HandlerFunc(func(_ int, body []byte) {
		got <- string(body)
	}))
	nw.Node(0).Do(func() { nw.Node(0).Send("x", 1, []byte("ping")) })
	msgs := collect(t, got, 2, 5*time.Second)
	if msgs[0] != "ping" || msgs[1] != "pong" {
		t.Fatalf("got %v", msgs)
	}
}

func TestBufferingBeforeRegistration(t *testing.T) {
	nw, err := New(Config{N: 2, F: 0, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	nw.Node(0).Do(func() { nw.Node(0).Send("late", 1, []byte("early-bird")) })
	time.Sleep(50 * time.Millisecond) // message arrives before registration
	// Register on the dispatcher, as protocol code does: the replay must
	// wait until Register has returned.
	got := make(chan string, 1)
	nw.Node(1).Do(func() {
		registered := false
		nw.Node(1).Register("late", proto.HandlerFunc(func(_ int, body []byte) {
			if !registered {
				body = []byte("handled inside Register")
			}
			got <- string(body)
		}))
		registered = true
	})
	if msgs := collect(t, got, 1, 5*time.Second); msgs[0] != "early-bird" {
		t.Fatalf("got %v", msgs)
	}
}

func TestRBCOverChannelsWithJitter(t *testing.T) {
	const n, f = 4, 1
	nw, err := New(Config{N: n, F: f, Seed: 3, Jitter: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	got := make(chan string, n)
	for i := 0; i < n; i++ {
		i := i
		r := rbc.New(nw.Node(i), "rbc", 0, func(v []byte) { got <- string(v) })
		if i == 0 {
			nw.Node(0).Do(func() { r.Start([]byte("live broadcast")) })
		}
	}
	for _, v := range collect(t, got, n, 10*time.Second) {
		if v != "live broadcast" {
			t.Fatalf("delivered %q", v)
		}
	}
}

func TestABAOverChannels(t *testing.T) {
	const n, f = 4, 1
	keys := keysFor(t, n, 4)
	_ = keys
	nw, err := New(Config{N: n, F: f, Seed: 4, Jitter: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	got := make(chan byte, n)
	for i := 0; i < n; i++ {
		i := i
		inst := aba.New(nw.Node(i), "aba", aba.TestCoins("live"), func(b byte) { got <- b })
		in := byte(i % 2)
		nw.Node(i).Do(func() { inst.Start(in) })
	}
	bits := collect(t, got, n, 15*time.Second)
	for _, b := range bits[1:] {
		if b != bits[0] {
			t.Fatalf("agreement violated on live runtime: %v", bits)
		}
	}
}

func TestCoinOverChannelsFullStack(t *testing.T) {
	const n, f = 4, 1
	keys := keysFor(t, n, 5)
	nw, err := New(Config{N: n, F: f, Seed: 5, Jitter: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	got := make(chan coin.Result, n)
	for i := 0; i < n; i++ {
		i := i
		c := coin.New(nw.Node(i), "coin", keys[i], coin.Config{}, func(r coin.Result) { got <- r })
		nw.Node(i).Do(c.Start)
	}
	res := collect(t, got, n, 30*time.Second)
	for _, r := range res {
		if r.Max == nil {
			t.Fatal("⊥ max on live runtime with all-honest cluster")
		}
	}
}

func TestElectionOverTCPLoopback(t *testing.T) {
	const n, f = 4, 1
	keys := keysFor(t, n, 6)
	nw, err := New(Config{N: n, F: f, Seed: 6, Transport: TCP})
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	got := make(chan election.Result, n)
	for i := 0; i < n; i++ {
		i := i
		e := election.New(nw.Node(i), "el", keys[i],
			election.Config{Coin: coin.Config{GenesisNonce: []byte("tcp")}},
			func(r election.Result) { got <- r })
		nw.Node(i).Do(e.Start)
	}
	res := collect(t, got, n, 60*time.Second)
	for _, r := range res[1:] {
		if r.Leader != res[0].Leader || r.ByDefault != res[0].ByDefault {
			t.Fatalf("election disagreement over TCP: %+v vs %+v", r, res[0])
		}
	}
}

func TestCloseIsIdempotentAndStopsDelivery(t *testing.T) {
	nw, err := New(Config{N: 2, F: 0, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	delivered := make(chan struct{}, 8)
	nw.Node(1).Register("x", proto.HandlerFunc(func(int, []byte) { delivered <- struct{}{} }))
	nw.Close()
	nw.Close() // idempotent
	nw.Node(0).Do(func() { nw.Node(0).Send("x", 1, []byte("after close")) })
	select {
	case <-delivered:
		t.Fatal("delivery after Close")
	case <-time.After(100 * time.Millisecond):
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{N: 0}); err == nil {
		t.Fatal("accepted N=0")
	}
	if _, err := New(Config{N: 2, Transport: Transport(99)}); err == nil {
		t.Fatal("accepted unknown transport")
	}
}

func TestRejectCounting(t *testing.T) {
	nw, err := New(Config{N: 2, F: 0, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	done := make(chan struct{}, 1)
	nw.Node(1).Register("x", proto.HandlerFunc(func(int, []byte) {
		nw.Node(1).Reject()
		done <- struct{}{}
	}))
	nw.Node(0).Do(func() { nw.Node(0).Send("x", 1, []byte("bad")) })
	collect(t, done, 1, 5*time.Second)
	if nw.Rejected() != 1 {
		t.Fatalf("rejected = %d", nw.Rejected())
	}
}

func TestCrashedNodeToleratedOnLiveRuntime(t *testing.T) {
	const n, f = 4, 1
	keys := keysFor(t, n, 9)
	nw, err := New(Config{N: n, F: f, Seed: 9, Jitter: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	nw.Node(3).Crash()
	got := make(chan byte, n)
	for i := 0; i < 3; i++ {
		inst := aba.New(nw.Node(i), "aba", aba.TestCoins("crash-live"), func(b byte) { got <- b })
		in := byte(i % 2)
		nw.Node(i).Do(func() { inst.Start(in) })
	}
	_ = keys
	bits := collect(t, got, 3, 15*time.Second)
	for _, b := range bits[1:] {
		if b != bits[0] {
			t.Fatalf("agreement violated with live crash: %v", bits)
		}
	}
}

// TestTCPWriteCoalescing measures the frames-per-syscall gain of the
// per-peer buffered writers: a burst of sends issued within one dispatcher
// job must reach the wire in a handful of socket writes (flush-on-idle),
// not one syscall per frame as the old transport paid.
func TestTCPWriteCoalescing(t *testing.T) {
	nw, err := New(Config{N: 2, F: 0, Seed: 5, Transport: TCP})
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	const burst = 200
	got := make(chan struct{}, burst)
	nw.Node(1).Register("x", proto.HandlerFunc(func(int, []byte) { got <- struct{}{} }))
	nw.Node(0).Do(func() {
		for i := 0; i < burst; i++ {
			nw.Node(0).Send("x", 1, []byte("coalesce-me"))
		}
	})
	collect(t, got, burst, 5*time.Second)
	st := nw.TCPStats()
	if st.Frames != burst {
		t.Fatalf("frames=%d, want %d", st.Frames, burst)
	}
	if st.Syscalls == 0 || st.Syscalls > burst/4 {
		t.Fatalf("coalescing regressed: %d frames took %d syscalls", st.Frames, st.Syscalls)
	}
	if st.Dropped != 0 {
		t.Fatalf("dropped %d frames on a healthy connection", st.Dropped)
	}
	t.Logf("frames=%d syscalls=%d (%.1f frames/syscall)",
		st.Frames, st.Syscalls, float64(st.Frames)/float64(st.Syscalls))
}

// TestTCPSeverReconnectRecoversFrames pins the reconnect contract that
// replaced drop-on-write-failure: killing a connection under the writer
// must not lose frames — the mesh redials with backoff and resends the
// unacked outbox, so every frame still arrives exactly once.
func TestTCPSeverReconnectRecoversFrames(t *testing.T) {
	nw, err := New(Config{N: 2, F: 0, Seed: 6, Transport: TCP})
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	const burst = 10
	got := make(chan string, 2*burst)
	nw.Node(1).Register("x", proto.HandlerFunc(func(_ int, body []byte) { got <- string(body) }))
	// Prove the link is established (a delivery requires an attached
	// connection) so the sever below kills a live socket, not a dial in
	// progress.
	nw.Node(0).Do(func() { nw.Node(0).Send("x", 1, []byte{0xff}) })
	collect(t, got, 1, 5*time.Second)
	nw.Sever(0, 1) // kill the socket under the writer
	nw.Node(0).Do(func() {
		for i := 0; i < burst; i++ {
			nw.Node(0).Send("x", 1, []byte{byte(i)})
		}
	})
	seen := map[string]bool{}
	for _, v := range collect(t, got, burst, 10*time.Second) {
		if seen[v] {
			t.Fatalf("frame %d delivered twice", v[0])
		}
		seen[v] = true
	}
	st := nw.TCPStats()
	if st.Dropped != 0 {
		t.Fatalf("dropped %d frames despite reconnect", st.Dropped)
	}
	if st.Redials == 0 {
		t.Fatal("severed connection recovered without a recorded redial")
	}
	if nw.PeerDrops(0, 1) != 0 || nw.PeerDrops(1, 0) != 0 {
		t.Fatalf("healthy links booked drops: %d / %d", nw.PeerDrops(0, 1), nw.PeerDrops(1, 0))
	}
}

// TestChannelsTransportReportsZeroTCPStats keeps the stats surface honest
// on the in-process transport.
func TestChannelsTransportReportsZeroTCPStats(t *testing.T) {
	nw, err := New(Config{N: 2, F: 0, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	if st := nw.TCPStats(); st != (TCPStats{}) {
		t.Fatalf("channels transport reported %+v", st)
	}
	if nw.PeerDrops(0, 1) != 0 {
		t.Fatal("channels transport reported peer drops")
	}
}

// TestTCPTimerFlushBoundsFrameLatency pins the max-frame-latency flush: a
// sender whose dispatcher never goes idle (each job enqueues its successor
// before returning, so the flush-on-idle path never runs) and whose frames
// total far under the 64 KiB overflow threshold still gets every frame to
// the wire, because the background timer sweeps pending buffers each period.
func TestTCPTimerFlushBoundsFrameLatency(t *testing.T) {
	nw, err := New(Config{N: 2, F: 0, Seed: 8, Transport: TCP})
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	const frames = 100 // ~3 KiB total: the overflow write-through never fires
	got := make(chan struct{}, frames)
	nw.Node(1).Register("x", proto.HandlerFunc(func(int, []byte) { got <- struct{}{} }))
	var stop atomic.Bool
	var job func()
	sent := 0
	job = func() {
		if stop.Load() {
			return
		}
		nw.Node(0).Do(job) // successor first: the queue never drains
		if sent < frames {
			sent++
			nw.Node(0).Send("x", 1, []byte("timer-flush-me"))
		}
		time.Sleep(200 * time.Microsecond) // sustained, not hot-spinning
	}
	nw.Node(0).Do(job)
	collect(t, got, frames, 10*time.Second)
	stop.Store(true)
	if st := nw.TCPStats(); st.Dropped != 0 {
		t.Fatalf("dropped %d frames on a healthy connection", st.Dropped)
	}
}
