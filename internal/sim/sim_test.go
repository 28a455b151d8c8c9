package sim

import (
	"testing"
)

// echoHandler replies "pong" to the sender of any "ping".
type echoHandler struct {
	nd       *Node
	inst     string
	received []string
	froms    []int
	depths   []int
}

func (e *echoHandler) Handle(from int, body []byte) {
	e.received = append(e.received, string(body))
	e.froms = append(e.froms, from)
	e.depths = append(e.depths, e.nd.Depth())
	if string(body) == "ping" {
		e.nd.Send(e.inst, from, []byte("pong"))
	}
}

func newEcho(nw *Network, node int, inst string) *echoHandler {
	e := &echoHandler{nd: nw.Node(node), inst: inst}
	nw.Node(node).Register(inst, e)
	return e
}

func TestPingPongDelivery(t *testing.T) {
	nw := New(Config{N: 2, F: 0, Seed: 1})
	a := newEcho(nw, 0, "x")
	b := newEcho(nw, 1, "x")
	nw.Node(0).Send("x", 1, []byte("ping"))
	if err := nw.RunAll(100); err != nil {
		t.Fatal(err)
	}
	if len(b.received) != 1 || b.received[0] != "ping" || b.froms[0] != 0 {
		t.Fatalf("b got %v from %v", b.received, b.froms)
	}
	if len(a.received) != 1 || a.received[0] != "pong" {
		t.Fatalf("a got %v", a.received)
	}
}

func TestCausalDepthCounting(t *testing.T) {
	nw := New(Config{N: 2, F: 0, Seed: 1})
	a := newEcho(nw, 0, "x")
	b := newEcho(nw, 1, "x")
	nw.Node(0).Send("x", 1, []byte("ping")) // sent at depth 0 → message depth 1
	if err := nw.RunAll(100); err != nil {
		t.Fatal(err)
	}
	if b.depths[0] != 1 {
		t.Fatalf("ping processed at depth %d, want 1", b.depths[0])
	}
	if a.depths[0] != 2 {
		t.Fatalf("pong processed at depth %d, want 2 (causal round)", a.depths[0])
	}
	if nw.Metrics().MaxDepth != 2 {
		t.Fatalf("MaxDepth = %d", nw.Metrics().MaxDepth)
	}
}

func TestBufferingBeforeRegistration(t *testing.T) {
	nw := New(Config{N: 2, F: 0, Seed: 1})
	newEcho(nw, 0, "x")
	nw.Node(0).Send("x", 1, []byte("early")) // node 1 has no handler yet
	if err := nw.RunAll(100); err != nil {
		t.Fatal(err)
	}
	b := newEcho(nw, 1, "x") // registration must replay the buffered message
	if len(b.received) != 0 {
		t.Fatalf("handler ran inside Register: %v", b.received)
	}
	if err := nw.RunAll(100); err != nil {
		t.Fatal(err)
	}
	// Replays drain on the next Step; force one via a no-op message.
	nw.Node(0).Send("x", 0, []byte("noop"))
	if err := nw.RunAll(100); err != nil {
		t.Fatal(err)
	}
	if len(b.received) != 1 || b.received[0] != "early" {
		t.Fatalf("buffered message not replayed: %v", b.received)
	}
}

func TestMulticastReachesAllIncludingSelf(t *testing.T) {
	nw := New(Config{N: 4, F: 1, Seed: 3})
	hs := make([]*echoHandler, 4)
	for i := range hs {
		hs[i] = newEcho(nw, i, "m")
	}
	nw.Node(2).Multicast("m", []byte("hello"))
	if err := nw.RunAll(100); err != nil {
		t.Fatal(err)
	}
	for i, h := range hs {
		if len(h.received) != 1 || h.received[0] != "hello" {
			t.Fatalf("node %d received %v", i, h.received)
		}
	}
}

func TestMetricsCountHonestVsByzantine(t *testing.T) {
	nw := New(Config{N: 3, F: 1, Seed: 4, Byzantine: map[int]bool{2: true}})
	for i := 0; i < 3; i++ {
		newEcho(nw, i, "m")
	}
	nw.Node(0).Send("m", 1, []byte("hi")) // honest, no reply ("hi" != "ping")
	nw.Inject(2, 1, "m", []byte("evil"))  // byzantine
	if err := nw.RunAll(100); err != nil {
		t.Fatal(err)
	}
	m := nw.Metrics()
	if m.Honest.Msgs != 1 {
		t.Fatalf("honest msgs = %d", m.Honest.Msgs)
	}
	if m.Byz.Msgs != 1 {
		t.Fatalf("byz msgs = %d", m.Byz.Msgs)
	}
	if m.Honest.Bytes <= 0 || m.Byz.Bytes <= 0 {
		t.Fatal("byte accounting missing")
	}
}

func TestByPrefixAggregation(t *testing.T) {
	nw := New(Config{N: 2, F: 0, Seed: 5})
	newEcho(nw, 1, "p/a")
	newEcho(nw, 1, "p/b")
	newEcho(nw, 1, "q")
	nw.Node(0).Send("p/a", 1, []byte("1"))
	nw.Node(0).Send("p/b", 1, []byte("2"))
	nw.Node(0).Send("q", 1, []byte("3"))
	if err := nw.RunAll(100); err != nil {
		t.Fatal(err)
	}
	if got := nw.Metrics().Honest.ByPrefix("p/").Msgs; got != 2 {
		t.Fatalf("prefix p/ msgs = %d, want 2", got)
	}
	if got := nw.Metrics().Honest.ByPrefix("q").Msgs; got != 1 {
		t.Fatalf("prefix q msgs = %d, want 1", got)
	}
}

func TestCrashedNodeDropsDeliveries(t *testing.T) {
	nw := New(Config{N: 2, F: 0, Seed: 6})
	newEcho(nw, 0, "x")
	b := newEcho(nw, 1, "x")
	nw.Node(1).Crash()
	nw.Node(0).Send("x", 1, []byte("ping"))
	if err := nw.RunAll(100); err != nil {
		t.Fatal(err)
	}
	if len(b.received) != 0 {
		t.Fatalf("crashed node processed %v", b.received)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []string {
		nw := New(Config{N: 4, F: 1, Seed: 42})
		var log []string
		for i := 0; i < 4; i++ {
			i := i
			nd := nw.Node(i)
			nd.Register("m", HandlerFunc(func(from int, body []byte) {
				log = append(log, string(rune('a'+i))+string(body))
			}))
		}
		for i := 0; i < 4; i++ {
			nw.Node(i).Multicast("m", []byte{byte('0' + i)})
		}
		if err := nw.RunAll(1000); err != nil {
			t.Fatal(err)
		}
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("replay diverged in length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %s vs %s", i, a[i], b[i])
		}
	}
}

func TestRunDetectsStalls(t *testing.T) {
	nw := New(Config{N: 2, F: 0, Seed: 7})
	err := nw.Run(10, func() bool { return false })
	if err == nil {
		t.Fatal("Run returned nil despite unachievable condition")
	}
}

func TestRunStopsOnDone(t *testing.T) {
	nw := New(Config{N: 2, F: 0, Seed: 8})
	newEcho(nw, 0, "x")
	newEcho(nw, 1, "x")
	count := 0
	nw.Node(0).Register("c", HandlerFunc(func(int, []byte) { count++ }))
	nw.Node(1).Send("c", 0, []byte("1"))
	nw.Node(1).Send("c", 0, []byte("2"))
	if err := nw.Run(100, func() bool { return count >= 1 }); err != nil {
		t.Fatal(err)
	}
	if count == 0 {
		t.Fatal("done condition never became true")
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	nw := New(Config{N: 1, F: 0, Seed: 9})
	nw.Node(0).Register("x", HandlerFunc(func(int, []byte) {}))
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	nw.Node(0).Register("x", HandlerFunc(func(int, []byte) {}))
}

func TestDelaySchedulerStarvesSlowParty(t *testing.T) {
	nw := New(Config{
		N: 3, F: 0, Seed: 10,
		Scheduler: DelayScheduler{Slow: map[int]bool{2: true}, Bias: 1.0},
	})
	order := []int{}
	for i := 0; i < 3; i++ {
		i := i
		nw.Node(i).Register("m", HandlerFunc(func(int, []byte) { order = append(order, i) }))
	}
	nw.Node(0).Send("m", 2, []byte("to-slow"))
	nw.Node(0).Send("m", 1, []byte("to-fast"))
	nw.Step()
	if len(order) != 1 || order[0] != 1 {
		t.Fatalf("delay scheduler delivered %v first", order)
	}
}
