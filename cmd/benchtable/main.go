// Command benchtable regenerates the paper's quantitative artifacts — the
// Table 1 comparison and the derived experiments E1–E11 plus the
// adversarial-scheduler scenario suite — through the registry-driven
// parallel matrix engine in internal/exp.
//
// Usage:
//
//	go run ./cmd/benchtable -exp table1                  # Table 1 rows
//	go run ./cmd/benchtable -exp e1,e2 -n 4,7            # explicit sweep
//	go run ./cmd/benchtable -exp adv -sched lifo         # scenario suite under an override adversary
//	go run ./cmd/benchtable -exp table1 -json > FILE     # machine-readable matrix document
//	go run ./cmd/benchtable -regen BENCH_table1.json,BENCH_rbc.json   # rerun committed documents in place
//
// Selectors name specs ("e1/coin-pki"), groups ("e1".."e11", "ablation",
// "adv", "mux", "rbc") or tags ("table1", "sched", "session", "rbc"); "all"
// selects everything. Growth exponents are least-squares fits of
// log(mean bytes) against log(n); the paper's claims are Θ(λn³) for the new protocols, Θ(λn⁴) for CKLS02-shape,
// Θ(λn³ log n) for AJM+21-shape and Θ(λn²) for the threshold-setup coin.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"repro/internal/exp"
	"repro/internal/order"
)

func main() {
	expFlag := flag.String("exp", "table1", "spec/group/tag selector, comma-separated (e.g. table1, e1..e11, adv, mux, all)")
	nFlag := flag.String("n", "", "comma-separated party counts overriding each spec's sweep")
	seed := flag.Int64("seed", 1, "base seed (every cell derives its own via TrialSeed)")
	trials := flag.Int("trials", 0, "trials per (spec, n); 0 = spec default")
	schedFlag := flag.String("sched", "", "override adversary: random|fifo|lifo|delay|partition|targeted:<inst-prefix>")
	workers := flag.Int("workers", runtime.NumCPU(), "worker-pool size (results do not depend on it)")
	jsonOut := flag.Bool("json", false, "emit the machine-readable matrix document on stdout")
	steps := flag.Int64("steps", 0, "per-run delivery budget; 0 = generous default")
	regen := flag.String("regen", "", "comma-separated matrix documents to rerun from their own record and rewrite")
	flag.Parse()

	if *regen != "" {
		flag.Visit(func(f *flag.Flag) {
			if f.Name != "regen" && f.Name != "workers" {
				fatal(fmt.Errorf("-regen takes no -%s: the document records its own inputs", f.Name))
			}
		})
		regenFiles(strings.Split(*regen, ","), *workers)
		return
	}

	specs, err := exp.Select(*expFlag)
	if err != nil {
		fatal(err)
	}
	var ns []int
	if *nFlag != "" {
		if ns, err = parseNs(*nFlag); err != nil {
			fatal(err)
		}
	}
	for i := range specs {
		if ns != nil {
			specs[i].Ns = ns
		}
		if *trials > 0 {
			specs[i].Trials = *trials
		}
	}
	opt := exp.MatrixOptions{BaseSeed: *seed, Workers: *workers, Steps: *steps}
	if *schedFlag != "" {
		if opt.Sched, err = exp.NamedSched(*schedFlag); err != nil {
			fatal(err)
		}
		opt.SchedName = *schedFlag
	}

	m := exp.RunMatrix(specs, opt)
	m.Selector = *expFlag
	if *jsonOut {
		doc, err := m.Encode()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(doc)
	} else {
		printHuman(m)
	}
	if cellErrors(m) {
		os.Exit(1)
	}
}

// regenFiles reruns and rewrites each document, then exits 1 if any cell errored.
func regenFiles(paths []string, workers int) {
	failed := false
	for _, path := range paths {
		fmt.Printf("%s\n", path)
		doc, err := os.ReadFile(path)
		if err != nil {
			fatal(err)
		}
		m, err := exp.Regen(doc, workers, os.Stdout)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", path, err))
		}
		if doc, err = m.Encode(); err != nil {
			fatal(err)
		}
		if err := os.WriteFile(path, doc, 0o644); err != nil {
			fatal(err)
		}
		failed = cellErrors(m) || failed
	}
	if failed {
		os.Exit(1)
	}
}

// cellErrors prints m's errored cells to stderr and reports whether any.
func cellErrors(m exp.Matrix) bool {
	errs := m.CellErrors()
	for _, e := range errs {
		fmt.Fprintln(os.Stderr, "cell error:", e)
	}
	return len(errs) > 0
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchtable:", err)
	os.Exit(2)
}

func parseNs(s string) ([]int, error) {
	var ns []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 4 {
			return nil, fmt.Errorf("bad n %q (need integers ≥ 4)", part)
		}
		ns = append(ns, v)
	}
	sort.Ints(ns)
	return ns, nil
}

// groupLess orders experiment groups the way a reader expects: e-numbered
// groups numerically (e1 < e2 < … < e10 < e11), everything else after,
// alphabetically.
func groupLess(a, b string) bool {
	na, errA := strconv.Atoi(strings.TrimPrefix(a, "e"))
	nb, errB := strconv.Atoi(strings.TrimPrefix(b, "e"))
	switch {
	case (errA == nil) != (errB == nil):
		return errA == nil
	case errA == nil:
		return na < nb
	default:
		return a < b
	}
}

// printHuman renders the matrix as the familiar per-group tables: one row
// per spec, one column per n, mean bytes per cell, plus the fitted growth
// exponent and the extras.
func printHuman(m exp.Matrix) {
	byGroup := map[string][]exp.SpecReport{}
	for _, s := range m.Specs {
		byGroup[s.Group] = append(byGroup[s.Group], s)
	}
	for _, g := range order.SortedKeysFunc(byGroup, groupLess) {
		specs := byGroup[g]
		ns := unionNs(specs)
		fmt.Printf("\n== %s ==\n", g)
		fmt.Printf("%-34s", "spec")
		for _, n := range ns {
			fmt.Printf("  %12s", fmt.Sprintf("n=%d", n))
		}
		fmt.Printf("  %8s  %12s  %s\n", "fit n^b", "rounds@max-n", "claim")
		for _, s := range specs {
			fmt.Printf("%-34s", s.Title)
			cells := map[int]exp.Cell{}
			for _, c := range s.Cells {
				cells[c.N] = c
			}
			for _, n := range ns {
				c, ok := cells[n]
				switch {
				case !ok:
					fmt.Printf("  %12s", "—")
				case len(c.Errors) == c.Trials:
					fmt.Printf("  %12s", "ERR")
				default:
					fmt.Printf("  %12s", humanBytes(c.Bytes.Mean))
				}
			}
			// rounds@max-n reports the spec's own largest size — "—" when
			// that cell errored out, never a smaller size's value.
			rounds := "—"
			if last := s.Cells[len(s.Cells)-1]; len(last.Errors) < last.Trials {
				rounds = fmt.Sprintf("%.1f", last.Rounds.Mean)
			}
			fmt.Printf("  %8.2f  %12s  %s\n", s.BytesExp, rounds, s.Claim)
			printExtras(s)
		}
	}
	fmt.Println()
}

// printExtras lists every extra of the spec's largest cell under its
// table row, in sorted order.
func printExtras(s exp.SpecReport) {
	last := s.Cells[len(s.Cells)-1]
	if len(last.Extra) == 0 {
		return
	}
	parts := make([]string, 0, len(last.Extra))
	for _, k := range order.SortedKeys(last.Extra) {
		parts = append(parts, fmt.Sprintf("%s %.4g", k, last.Extra[k].Mean))
	}
	fmt.Printf("%-34s    · %s\n", "", strings.Join(parts, ", "))
}

func unionNs(specs []exp.SpecReport) []int {
	seen := map[int]bool{}
	for _, s := range specs {
		for _, c := range s.Cells {
			seen[c.N] = true
		}
	}
	return order.SortedKeys(seen)
}

func humanBytes(b float64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.2f MiB", b/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1f KiB", b/(1<<10))
	default:
		return fmt.Sprintf("%.0f B", b)
	}
}
