package exp

// The matrix engine: fans a set of specs × party counts × trials out over a
// worker pool and aggregates the paper's metrics per cell. Every run owns
// its own sim.Network, cluster keys and RNG (seeded by TrialSeed), and every
// result lands in a pre-allocated slot indexed by (spec, n, trial) — no
// shared mutable state, so results are bit-identical whether the matrix runs
// on one worker or on runtime.NumCPU() (Spec.Alone covers the exception).

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"repro/internal/order"
)

// MatrixOptions tune one engine invocation. Each spec runs its own Ns and
// Trials.
type MatrixOptions struct {
	BaseSeed  int64        // base for TrialSeed derivation
	Workers   int          // pool size; <= 0 → runtime.NumCPU()
	Sched     SchedFactory // override every spec's scheduler
	SchedName string       // label recorded in reports when Sched is set
	Steps     int64        // per-run delivery budget; 0 = runner default
}

// Dist summarizes one metric across a cell's trials.
type Dist struct {
	Mean float64 `json:"mean"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
	P95  float64 `json:"p95"`
}

// NewDist computes the summary of vs (nearest-rank p95). Empty input yields
// the zero Dist.
func NewDist(vs []float64) Dist {
	if len(vs) == 0 {
		return Dist{}
	}
	sorted := append([]float64(nil), vs...)
	sort.Float64s(sorted)
	var sum float64
	for _, v := range sorted {
		sum += v
	}
	rank := int(math.Ceil(0.95*float64(len(sorted)))) - 1
	return Dist{
		Mean: sum / float64(len(sorted)),
		Min:  sorted[0],
		Max:  sorted[len(sorted)-1],
		P95:  sorted[rank],
	}
}

// Cell aggregates one (spec, n) point over its trials.
type Cell struct {
	N      int             `json:"n"`
	Trials int             `json:"trials"`
	Bytes  Dist            `json:"bytes"`
	Msgs   Dist            `json:"msgs"`
	Rounds Dist            `json:"rounds"`
	Steps  Dist            `json:"steps"`
	Extra  map[string]Dist `json:"extra,omitempty"`
	Errors []string        `json:"errors,omitempty"`
}

// SpecReport is one spec's full sweep plus log-log growth-exponent fits of
// the mean metrics against n (the paper's Θ(n^b) comparison axis).
type SpecReport struct {
	Name      string  `json:"name"`
	Group     string  `json:"group"`
	Title     string  `json:"title"`
	Claim     string  `json:"claim,omitempty"`
	Scheduler string  `json:"scheduler"`
	Cells     []Cell  `json:"cells"`
	BytesExp  float64 `json:"bytes_exponent"` // 0 when the sweep has < 2 sizes
	MsgsExp   float64 `json:"msgs_exponent"`
	FitPoints int     `json:"fit_points"`
}

// Matrix is the engine's complete, JSON-serializable output document — the
// BENCH_*.json artifact CI regenerates with Regen and diff-gates. It records
// every result-determining input (selector, base seed, step budget, each
// spec's scheduler, n-sweep and trial count) and nothing else: results are
// bit-identical at any pool size (TestMatrixParallelMatchesSerial), so the
// worker count is not recorded and the diff gate compares substance only.
type Matrix struct {
	Schema   string       `json:"schema"`
	Selector string       `json:"selector,omitempty"`
	BaseSeed int64        `json:"base_seed"`
	Steps    int64        `json:"steps,omitempty"` // MatrixOptions.Steps
	Specs    []SpecReport `json:"specs"`
}

// MatrixSchema identifies the artifact layout version.
const MatrixSchema = "repro-bench/v1"

// FitExponent least-squares fits log(y) = a + b·log(n) and returns b; it
// needs ≥ 2 distinct sizes and positive ys, else returns 0.
func FitExponent(ns []int, ys []float64) float64 {
	if len(ns) < 2 || len(ns) != len(ys) {
		return 0
	}
	var sx, sy, sxx, sxy float64
	k := float64(len(ns))
	for i := range ns {
		if ys[i] <= 0 {
			return 0
		}
		x := math.Log(float64(ns[i]))
		y := math.Log(ys[i])
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	den := k*sxx - sx*sx
	if den == 0 {
		return 0
	}
	return (k*sxy - sx*sy) / den
}

type slot struct {
	out Outcome
	err error
}

// RunMatrix executes every spec cell over the worker pool and aggregates.
// Per-run determinism: a run's behaviour depends only on (spec, n, trial,
// BaseSeed), so the same options replay the same Matrix regardless of
// Workers. Cells of Alone specs run first, one at a time, in spec order.
func RunMatrix(specs []Spec, opt MatrixOptions) Matrix {
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}

	type job struct {
		si, ni, ti int
		run        func() (Outcome, error)
	}
	var jobs []job
	results := make([][][]slot, len(specs))
	for si, s := range specs {
		results[si] = make([][]slot, len(s.Ns))
		for ni, n := range s.Ns {
			results[si][ni] = make([]slot, s.Trials)
			for ti := 0; ti < s.Trials; ti++ {
				s, n, ti := s, n, ti
				j := job{si: si, ni: ni, ti: ti, run: func() (Outcome, error) {
					seed := TrialSeed(s.Name, opt.BaseSeed, ti)
					rs := s.RunSpec(n, seed)
					if opt.Sched != nil {
						rs.Sched = opt.Sched(n, seed)
					}
					if opt.Steps > 0 {
						rs.Steps = opt.Steps
					}
					return s.Run(rs)
				}}
				if s.Alone { // before the pool exists: nothing runs beside it
					out, err := j.run()
					results[si][ni][ti] = slot{out: out, err: err}
				} else {
					jobs = append(jobs, j)
				}
			}
		}
	}

	ch := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range ch {
				out, err := j.run()
				results[j.si][j.ni][j.ti] = slot{out: out, err: err}
			}
		}()
	}
	for _, j := range jobs {
		ch <- j
	}
	close(ch)
	wg.Wait()

	m := Matrix{Schema: MatrixSchema, BaseSeed: opt.BaseSeed, Steps: opt.Steps}
	for si, s := range specs {
		rep := SpecReport{Name: s.Name, Group: s.Group, Title: s.Title, Claim: s.Claim}
		switch {
		case opt.Sched != nil:
			rep.Scheduler = opt.SchedName
		case s.Sched != nil:
			rep.Scheduler = "spec"
		default:
			rep.Scheduler = "random"
		}
		var fitNs []int
		var fitBytes, fitMsgs []float64
		for ni, n := range s.Ns {
			cell := Cell{N: n, Trials: len(results[si][ni])}
			var bytes, msgs, rounds, steps []float64
			extras := map[string][]float64{}
			for _, sl := range results[si][ni] {
				if sl.err != nil {
					cell.Errors = append(cell.Errors, sl.err.Error())
					continue
				}
				bytes = append(bytes, float64(sl.out.Stats.Bytes))
				msgs = append(msgs, float64(sl.out.Stats.Msgs))
				rounds = append(rounds, float64(sl.out.Stats.Rounds))
				steps = append(steps, float64(sl.out.Stats.Steps))
				for _, k := range order.SortedKeys(sl.out.Extra) {
					extras[k] = append(extras[k], sl.out.Extra[k])
				}
			}
			cell.Bytes, cell.Msgs = NewDist(bytes), NewDist(msgs)
			cell.Rounds, cell.Steps = NewDist(rounds), NewDist(steps)
			if len(extras) > 0 {
				cell.Extra = make(map[string]Dist, len(extras))
				for _, k := range order.SortedKeys(extras) {
					cell.Extra[k] = NewDist(extras[k])
				}
			}
			if len(bytes) > 0 {
				fitNs = append(fitNs, n)
				fitBytes = append(fitBytes, cell.Bytes.Mean)
				fitMsgs = append(fitMsgs, cell.Msgs.Mean)
			}
			rep.Cells = append(rep.Cells, cell)
		}
		if len(fitNs) >= 2 {
			rep.BytesExp = FitExponent(fitNs, fitBytes)
			rep.MsgsExp = FitExponent(fitNs, fitMsgs)
			rep.FitPoints = len(fitNs)
		}
		m.Specs = append(m.Specs, rep)
	}
	return m
}

// CellErrors flattens every error recorded anywhere in the matrix, prefixed
// with its (spec, n) coordinates — convenient for CI gating.
func (m Matrix) CellErrors() []string {
	var all []string
	for _, s := range m.Specs {
		for _, c := range s.Cells {
			for _, e := range c.Errors {
				all = append(all, fmt.Sprintf("%s n=%d: %s", s.Name, c.N, e))
			}
		}
	}
	return all
}
