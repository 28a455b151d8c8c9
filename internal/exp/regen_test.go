package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"
)

// TestRegenRoundTripsCommittedDocument: the committed sub-protocol matrix
// reruns from its own record byte for byte with no delta rows; one mean
// moved on an in-memory copy prints exactly one row; a step budget is
// rerun; a document recorded under a scheduler override is refused.
func TestRegenRoundTripsCommittedDocument(t *testing.T) {
	doc, err := os.ReadFile("../../BENCH_sub.json")
	if err != nil {
		t.Fatal(err)
	}
	var deltas bytes.Buffer
	m, err := Regen(doc, 2, &deltas)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, doc) {
		t.Fatalf("regenerated BENCH_sub.json differs from the committed copy; deltas:\n%s", deltas.String())
	}
	if deltas.Len() != 0 {
		t.Fatalf("unchanged document printed deltas:\n%s", deltas.String())
	}

	var old Matrix
	if err := json.Unmarshal(doc, &old); err != nil {
		t.Fatal(err)
	}
	old.Specs[0].Cells[0].Msgs.Mean++
	edited, err := old.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Regen(edited, 2, &deltas); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(deltas.String(), "\n"), "\n")
	c := old.Specs[0].Cells[0]
	want := fmt.Sprintf("| %s | %d | msgs | %g | %g |", old.Specs[0].Name, c.N, c.Msgs.Mean, c.Msgs.Mean-1)
	if len(lines) != 3 || lines[2] != want {
		t.Fatalf("deltas after moving one mean:\n%s\nwant the header and %q", deltas.String(), want)
	}

	// A step budget is part of the record: a run it cut short reruns cut
	// short, not under the default budget.
	specs, err := Select("e11/seeding")
	if err != nil {
		t.Fatal(err)
	}
	specs[0].Ns, specs[0].Trials = []int{4}, 1
	short := RunMatrix(specs, MatrixOptions{BaseSeed: 5, Steps: 20})
	short.Selector = "e11/seeding"
	if len(short.CellErrors()) != 1 {
		t.Fatalf("20-step run: %v, want one cut-short cell", short.CellErrors())
	}
	doc, _ = short.Encode()
	if m, err = Regen(doc, 2, io.Discard); err != nil {
		t.Fatal(err)
	} else if got, _ = m.Encode(); !bytes.Equal(got, doc) {
		t.Fatalf("step-budget document did not regenerate under its budget:\n%s", got)
	}

	// Any label but the spec's own ("random" here) marks an override.
	for _, sched := range []string{"lifo", "spec"} {
		old.Specs[0].Scheduler = sched
		if overridden, err := old.Encode(); err != nil {
			t.Fatal(err)
		} else if _, err := Regen(overridden, 2, io.Discard); err == nil {
			t.Fatalf("regen accepted %s recorded under scheduler %q", old.Specs[0].Name, sched)
		}
	}
}
