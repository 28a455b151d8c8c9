package exp

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"

	"repro/internal/harness"
	"repro/internal/order"
	"repro/internal/sim"
)

// SchedFactory builds a fresh scheduler for one run. Stateful adversaries
// (sim.PartitionScheduler, sim.Compose) carry per-run pick counters, so the
// engine calls the factory once per (spec, n, trial) rather than sharing a
// scheduler value across runs — that is what keeps every run individually
// seed-replayable.
type SchedFactory func(n int, seed int64) sim.Scheduler

// Outcome is one run's result: the paper's cost metrics plus named extras
// (agreement flags, election attempts, per-phase bytes) that scenario
// assertions and the aggregator consume uniformly.
type Outcome struct {
	Stats Stats
	Extra map[string]float64
}

// Spec is a named, registry-driven experiment: one protocol runner swept
// over party counts and repeated over seeded trials. The matrix engine is
// the only consumer; cmd/benchtable, bench_test.go and the CI artifact step
// all go through it.
type Spec struct {
	Name   string   // registry key, e.g. "e1/coin-pki"
	Group  string   // experiment family: "e1".."e11", "ablation", "adv"
	Tags   []string // extra selection sets, e.g. "table1"
	Title  string   // human-readable row label
	Claim  string   // the paper's asymptotic claim for this row
	Ns     []int    // default party-count sweep
	Trials int      // default trials per n

	Genesis []byte               // non-nil → adaptive variant (skip Seeding)
	Crash   func(n, f int) int   // crash count; nil = none
	Where   harness.CrashProfile // which parties crash
	Sched   SchedFactory         // nil = the simulator's random adversary
	Alone   bool                 // extras read process-wide counters: cells run first, one at a time

	Run func(RunSpec) (Outcome, error)
}

// RunSpec materializes the concrete runner input for one (n, seed) cell.
func (s Spec) RunSpec(n int, seed int64) RunSpec {
	rs := RunSpec{N: n, F: -1, Seed: seed, Genesis: s.Genesis, Where: s.Where}
	if s.Sched != nil {
		rs.Sched = s.Sched(n, seed)
	}
	if s.Crash != nil {
		rs.Crash = s.Crash(n, (n-1)/3)
	}
	return rs
}

var (
	regMu    sync.RWMutex
	registry = map[string]Spec{}
)

// Register adds a spec to the registry; duplicate or malformed specs panic
// (registration is init-time wiring, not runtime input).
func Register(s Spec) {
	if s.Name == "" || s.Run == nil || len(s.Ns) == 0 {
		panic(fmt.Sprintf("exp: malformed spec %+v", s.Name))
	}
	if s.Trials <= 0 {
		s.Trials = 1
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[s.Name]; dup {
		panic("exp: duplicate spec " + s.Name)
	}
	registry[s.Name] = s
}

// Lookup fetches one spec by exact name.
func Lookup(name string) (Spec, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	s, ok := registry[name]
	return s, ok
}

// Names lists every registered spec name, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Select resolves a comma-separated selector into specs, sorted by name.
// Each term matches an exact spec name, a group, or a tag; the special term
// "all" selects everything. Unknown terms are an error.
func Select(selector string) ([]Spec, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	picked := map[string]Spec{}
	for _, term := range strings.Split(selector, ",") {
		term = strings.ToLower(strings.TrimSpace(term))
		if term == "" {
			continue
		}
		matched := false
		for _, name := range order.SortedKeys(registry) {
			if s := registry[name]; term == "all" || term == name || term == s.Group || hasTag(s, term) {
				picked[name] = s
				matched = true
			}
		}
		if !matched {
			return nil, fmt.Errorf("exp: selector %q matches no spec, group or tag", term)
		}
	}
	specs := make([]Spec, 0, len(picked))
	for _, s := range picked {
		specs = append(specs, s)
	}
	sort.Slice(specs, func(i, j int) bool { return specs[i].Name < specs[j].Name })
	return specs, nil
}

func hasTag(s Spec, tag string) bool {
	for _, t := range s.Tags {
		if t == tag {
			return true
		}
	}
	return false
}

// TrialSeed derives the seed for one (spec, trial) pair. It depends only on
// the spec name, base seed and trial index — never on scheduling or worker
// interleaving — so a matrix run reproduces each cell independently.
func TrialSeed(name string, base int64, trial int) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return base + int64(trial)*1_000_003 + int64(h.Sum64()&0xffff)
}

// RunNamed executes one run of a registered spec at party count n; the seed
// flows through TrialSeed so results line up with matrix cells.
func RunNamed(name string, n int, trial int, base int64) (Outcome, error) {
	s, ok := Lookup(name)
	if !ok {
		return Outcome{}, fmt.Errorf("exp: unknown spec %q", name)
	}
	return s.Run(s.RunSpec(n, TrialSeed(name, base, trial)))
}
