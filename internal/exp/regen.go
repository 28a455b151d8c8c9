package exp

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"strings"

	"repro/internal/order"
)

// Encode renders m as committed: indented JSON plus a trailing newline.
func (m Matrix) Encode() ([]byte, error) {
	doc, err := json.MarshalIndent(m, "", "  ")
	return append(doc, '\n'), err
}

// Regen reruns the matrix document doc from its own record (selector, base
// seed, step budget, each spec's cells' n and trials; a newly selected spec
// keeps its own sweep), refusing a scheduler override, and writes a
// "| spec | n | metric | before | after |" row to w per moved cell mean.
func Regen(doc []byte, workers int, w io.Writer) (Matrix, error) {
	var old Matrix
	if err := json.Unmarshal(doc, &old); err != nil {
		return Matrix{}, err
	}
	if old.Schema != MatrixSchema || old.Selector == "" {
		return Matrix{}, fmt.Errorf("exp: not a %s document with a selector", MatrixSchema)
	}
	specs, err := Select(old.Selector)
	if err != nil {
		return Matrix{}, err
	}
	recorded := map[string]SpecReport{}
	for _, r := range old.Specs {
		recorded[r.Name] = r
	}
	for i, s := range specs {
		r, ok := recorded[s.Name]
		if own := map[bool]string{false: "random", true: "spec"}[s.Sched != nil]; ok && r.Scheduler != own {
			return Matrix{}, fmt.Errorf("exp: %s ran under scheduler %q, not its own (%s)", s.Name, r.Scheduler, own)
		}
		if len(r.Cells) > 0 {
			specs[i].Ns, specs[i].Trials = nil, r.Cells[0].Trials
			for _, c := range r.Cells {
				specs[i].Ns = append(specs[i].Ns, c.N)
			}
		}
	}
	m := RunMatrix(specs, MatrixOptions{BaseSeed: old.BaseSeed, Workers: workers, Steps: old.Steps})
	m.Selector = old.Selector
	writeDeltas(w, old, m)
	return m, nil
}

// writeDeltas prints each cell mean (bytes, msgs, rounds, steps, extras)
// that differs, in (spec, n, metric) order; "—" marks a missing side.
func writeDeltas(w io.Writer, before, after Matrix) {
	type key struct {
		spec, metric string
		n            int
	}
	means := [2]map[key]string{{}, {}}
	for side, m := range []Matrix{before, after} {
		for _, s := range m.Specs {
			for _, c := range s.Cells {
				metrics := map[string]Dist{"bytes": c.Bytes, "msgs": c.Msgs, "rounds": c.Rounds, "steps": c.Steps}
				maps.Copy(metrics, c.Extra)
				for _, k := range order.SortedKeys(metrics) {
					means[side][key{s.Name, k, c.N}] = fmt.Sprint(metrics[k].Mean)
				}
			}
		}
	}
	all := maps.Clone(means[0])
	maps.Copy(all, means[1])
	header := "| spec | n | metric | before | after |\n|---|---|---|---|---|\n"
	for _, k := range order.SortedKeysFunc(all, func(a, b key) bool {
		return cmp.Or(strings.Compare(a.spec, b.spec), a.n-b.n, strings.Compare(a.metric, b.metric)) < 0
	}) {
		if was, now := means[0][k], means[1][k]; was != now {
			fmt.Fprintf(w, "%s| %s | %d | %s | %s | %s |\n", header, k.spec, k.n, k.metric, cmp.Or(was, "—"), cmp.Or(now, "—"))
			header = ""
		}
	}
}
