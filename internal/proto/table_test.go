package proto

import (
	"reflect"
	"testing"
)

// nop is a handler that ignores its messages; tables compare handlers by
// identity, so each test names the ones it registers.
type nop struct{ name string }

func (*nop) Handle(int, []byte) {}

func TestTableParksUntilRegister(t *testing.T) {
	var tb Table[int]
	for m := 1; m <= 3; m++ {
		if h, retired := tb.Route("a/b", m); h != nil || retired {
			t.Fatalf("unregistered path routed to %v (retired %v)", h, retired)
		}
	}
	tb.Route("c", 9)
	if got := tb.Parked(); !reflect.DeepEqual(got, []string{"a/b", "c"}) {
		t.Fatalf("Parked() = %v, want [a/b c]", got)
	}
	h := &nop{"ab"}
	if got := tb.Register("a/b", h); !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Fatalf("Register released %v, want the parked messages in arrival order", got)
	}
	if got, _ := tb.Route("a/b", 4); got != h {
		t.Fatalf("registered path routed to %v", got)
	}
	if got := tb.Parked(); !reflect.DeepEqual(got, []string{"c"}) {
		t.Fatalf("Parked() = %v after Register, want [c]", got)
	}
}

func TestTableRetireDropsPrefixAndSubPaths(t *testing.T) {
	var tb Table[string]
	tb.Register("x", &nop{"x"})
	tb.Register("x/aba", &nop{"x/aba"})
	sibling := &nop{"xy"}
	tb.Register("xy", sibling)
	tb.Route("x/c/r1", "parked-1")
	tb.Route("x/c/r1", "parked-2")
	tb.Route("x/rbc", "parked-3")
	tb.Route("xz", "kept")

	if got := tb.Retire("x"); !reflect.DeepEqual(got, []string{"parked-1", "parked-2", "parked-3"}) {
		t.Fatalf("Retire returned %v, want the messages parked under x in path order", got)
	}
	for _, inst := range []string{"x", "x/aba", "x/c/r1", "x/new"} {
		if h, retired := tb.Route(inst, "late"); h != nil || !retired {
			t.Fatalf("%s after Retire: handler %v, retired %v; want dropped", inst, h, retired)
		}
	}
	if got := tb.Register("x/late", &nop{"x/late"}); got != nil {
		t.Fatalf("Register under a retired prefix released %v", got)
	}
	if h, retired := tb.Route("x/late", "m"); h != nil || !retired {
		t.Fatal("Register under a retired prefix installed a handler")
	}
	if h, _ := tb.Route("xy", "m"); h != sibling {
		t.Fatal("Retire(x) dropped the sibling path xy")
	}
	if got := tb.Parked(); !reflect.DeepEqual(got, []string{"xz"}) {
		t.Fatalf("Parked() = %v, want only the sibling xz", got)
	}
}

func TestTableDuplicateRegisterPanics(t *testing.T) {
	var tb Table[int]
	tb.Register("x", &nop{"1"})
	defer func() {
		if recover() == nil {
			t.Fatal("a second handler for one path did not panic")
		}
	}()
	tb.Register("x", &nop{"2"})
}

func TestMeterChargesEnvelopeAndScopesInstances(t *testing.T) {
	var m Meter
	m.Record("t", 10)
	m.Record("t/aba", 20)
	m.Record("t/aba", 0)
	m.Record("tx", 5)
	cost := func(inst string, body int) int64 { return int64(len(inst) + body + EnvelopeOverhead) }

	want := Tally{4, cost("t", 10) + 2*cost("t/aba", 0) + 20 + cost("tx", 5)}
	if m.Tally != want {
		t.Fatalf("total %+v, want %+v", m.Tally, want)
	}
	if got, want := m.ByInstance("t"), (Tally{3, cost("t", 10) + 2*cost("t/aba", 0) + 20}); got != want {
		t.Fatalf("ByInstance(t) = %+v, want %+v (tx is a sibling, not a sub-path)", got, want)
	}
	if got := m.ByPrefix("t"); got != m.Tally {
		t.Fatalf("ByPrefix(t) = %+v, want every path %+v", got, m.Tally)
	}
	if got := m.ByInstance("none"); got != (Tally{}) {
		t.Fatalf("ByInstance of an unused tag = %+v", got)
	}
}
