package exp

import (
	"fmt"
	"math"
	"reflect"
	"testing"
)

// fakeSpec returns a deterministic arithmetic runner so aggregation and
// plumbing are testable without protocol executions.
func fakeSpec(name string) Spec {
	return Spec{
		Name: name, Group: "fake", Title: name,
		Ns: []int{4, 8}, Trials: 4,
		Run: func(rs RunSpec) (Outcome, error) {
			return Outcome{
				Stats: Stats{
					N: rs.N, F: (rs.N - 1) / 3,
					Bytes:  int64(rs.N) * int64(rs.N) * int64(rs.N), // exact cubic
					Msgs:   int64(rs.N) * int64(rs.N),
					Rounds: 3,
					Steps:  rs.Seed % 100, // trial-dependent spread
				},
				Extra: map[string]float64{"agreed": 1},
			}, nil
		},
	}
}

func TestNewDistStatistics(t *testing.T) {
	d := NewDist([]float64{4, 1, 3, 2})
	if d.Mean != 2.5 || d.Min != 1 || d.Max != 4 {
		t.Fatalf("dist = %+v", d)
	}
	// nearest-rank p95 of 4 samples is the max.
	if d.P95 != 4 {
		t.Fatalf("p95 = %v, want 4", d.P95)
	}
	if z := NewDist(nil); z != (Dist{}) {
		t.Fatalf("empty dist = %+v", z)
	}
}

func TestFitExponentRecoversCubic(t *testing.T) {
	ns := []int{4, 7, 10, 13}
	ys := make([]float64, len(ns))
	for i, n := range ns {
		ys[i] = 5 * math.Pow(float64(n), 3)
	}
	if b := FitExponent(ns, ys); math.Abs(b-3) > 1e-9 {
		t.Fatalf("fit = %v, want 3", b)
	}
	if b := FitExponent([]int{4}, []float64{1}); b != 0 {
		t.Fatalf("underdetermined fit = %v, want 0", b)
	}
}

func TestMatrixAggregatesAndFits(t *testing.T) {
	m := RunMatrix([]Spec{fakeSpec("fake/cubic")}, MatrixOptions{BaseSeed: 9, Workers: 3})
	if len(m.Specs) != 1 || len(m.Specs[0].Cells) != 2 {
		t.Fatalf("matrix shape: %+v", m)
	}
	rep := m.Specs[0]
	if math.Abs(rep.BytesExp-3) > 1e-9 || math.Abs(rep.MsgsExp-2) > 1e-9 {
		t.Fatalf("exponents bytes=%v msgs=%v, want 3 and 2", rep.BytesExp, rep.MsgsExp)
	}
	c0 := rep.Cells[0]
	if c0.N != 4 || c0.Trials != 4 || c0.Bytes.Mean != 64 || c0.Msgs.Mean != 16 {
		t.Fatalf("cell: %+v", c0)
	}
	if c0.Extra["agreed"].Mean != 1 {
		t.Fatalf("extra not aggregated: %+v", c0.Extra)
	}
	if len(m.CellErrors()) != 0 {
		t.Fatalf("unexpected errors: %v", m.CellErrors())
	}
}

// TestMatrixParallelMatchesSerial: the engine's worker count must not leak
// into results — one worker and many workers produce identical reports.
// dedup/rs-ops reads the process-wide rs counters, so the second selector
// pins the Alone rule: beside rbc/avid on a pool, its cells still count
// only their own codec work.
func TestMatrixParallelMatchesSerial(t *testing.T) {
	for _, sel := range []string{"e9,e11", "dedup/rs-ops,rbc/avid"} {
		specs, err := Select(sel)
		if err != nil {
			t.Fatal(err)
		}
		for i := range specs {
			specs[i].Ns, specs[i].Trials = []int{4, 7}, 2
		}
		serial := RunMatrix(specs, MatrixOptions{BaseSeed: 3, Workers: 1})
		parallel := RunMatrix(specs, MatrixOptions{BaseSeed: 3, Workers: 8})
		if !reflect.DeepEqual(serial, parallel) {
			t.Fatalf("%s: parallel run diverged from serial:\n%+v\nvs\n%+v", sel, serial, parallel)
		}
	}
}

func TestMatrixRecordsErrorsPerCell(t *testing.T) {
	s := fakeSpec("fake/failing")
	inner := s.Run
	s.Run = func(rs RunSpec) (Outcome, error) {
		if rs.N == 8 {
			return Outcome{}, fmt.Errorf("boom at n=%d", rs.N)
		}
		return inner(rs)
	}
	m := RunMatrix([]Spec{s}, MatrixOptions{Workers: 2})
	rep := m.Specs[0]
	if len(rep.Cells[1].Errors) != 4 {
		t.Fatalf("want 4 recorded errors, got %v", rep.Cells[1].Errors)
	}
	if rep.FitPoints != 0 || rep.BytesExp != 0 {
		t.Fatalf("fit should be skipped with one surviving size: %+v", rep)
	}
	if errs := m.CellErrors(); len(errs) != 4 || errs[0] != "fake/failing n=8: boom at n=8" {
		t.Fatalf("CellErrors = %v", errs)
	}
}

func TestSelectResolvesNamesGroupsAndTags(t *testing.T) {
	table1, err := Select("table1")
	if err != nil {
		t.Fatal(err)
	}
	if len(table1) != 9 { // 7 coin rows + election + vba
		names := make([]string, len(table1))
		for i, s := range table1 {
			names[i] = s.Name
		}
		t.Fatalf("table1 selected %v", names)
	}
	one, err := Select("e10/wcs")
	if err != nil || len(one) != 1 || one[0].Name != "e10/wcs" {
		t.Fatalf("name select: %v %v", one, err)
	}
	grp, err := Select("adv")
	if err != nil || len(grp) != 7 {
		t.Fatalf("adv group select: %d specs, err %v", len(grp), err)
	}
	mux, err := Select("mux")
	if err != nil || len(mux) != 4 {
		t.Fatalf("mux group select: %d specs, err %v", len(mux), err)
	}
	if _, err := Select("no-such-thing"); err == nil {
		t.Fatal("unknown selector did not error")
	}
	all, err := Select("all")
	if err != nil || len(all) != len(Names()) {
		t.Fatalf("all select: %d vs %d", len(all), len(Names()))
	}
}

func TestNamedSchedResolves(t *testing.T) {
	for _, name := range []string{"random", "fifo", "lifo", "delay", "partition", "targeted:coin/sd/"} {
		f, err := NamedSched(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if f(4, 1) == nil {
			t.Fatalf("%s: factory returned nil scheduler", name)
		}
	}
	for _, bad := range []string{"", "bogus", "targeted:"} {
		if _, err := NamedSched(bad); err == nil {
			t.Fatalf("NamedSched(%q) did not error", bad)
		}
	}
}

// TestRunNamedDeterministic: a registry cell replays bit-for-bit.
func TestRunNamedDeterministic(t *testing.T) {
	a, err := RunNamed("e11/seeding", 4, 0, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunNamed("e11/seeding", 4, 0, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("replay diverged:\n%+v\nvs\n%+v", a, b)
	}
	c, err := RunNamed("e11/seeding", 4, 1, 42)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different trials produced identical outcomes (suspicious)")
	}
}
