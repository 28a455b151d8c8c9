package nodenet

// Named workloads the launcher can replay on a process cluster. Each maps
// to per-party control-RPC launch requests mirroring the registry specs in
// internal/exp, and declares what may be checked about its decisions:
//
//   - Agreement: every process must report an identical decision (the
//     protocol's agreement property — gated for every deterministic-output
//     kind).
//   - A ledger passes noded.CheckLedger: conservation, then full delivery.
//     A slow honest party voted out of the final slots gets its txs back
//     as leftovers (its Decision counts them), which breaks full delivery
//     alone. A party that never stops keeps the ledger open.
//   - Sim: the decision is reproducible from the seed alone, so it must
//     also equal an in-process simulator run of the same protocol. Only
//     validity-pinned workloads qualify: a unanimous ABA, a VBA whose
//     proposals all agree. Timing-dependent outcomes (the election's
//     leader, which depends on which coin shares aggregate first,
//     distinct-proposal VBA, weak coins, ADKG's contributor set) are
//     compared across processes only.

import (
	"context"
	"fmt"
	"time"

	"repro/internal/exp"
	"repro/internal/harness"
	"repro/internal/kinds"
	"repro/internal/noded"
)

// Workload is one replayable multi-process scenario.
type Workload struct {
	Name      string
	Kind      string // noded instance kind
	Genesis   string
	Input     func(i int) []byte // nil = no input
	Predicate string
	Epochs    int
	TxCount   int
	TxBytes   int

	Agreement bool // decisions must be identical across processes
	Sim       bool // decision must match the simulator for the same seed

	// Mid, when set, runs after every party has accepted the launch and
	// before drain/await — the window where fault injection (a SIGKILL +
	// WAL restart, say) cannot race the control RPCs themselves. An error
	// fails the workload.
	Mid func() error

	// Byz names an adversary behavior run by the top-indexed party: that
	// process's protocol instance lies on the wire (internal/adversary via
	// noded's launch path). The run then additionally asserts that the
	// cluster's detection counters (rejected + equivocations) fired —
	// a lying process nobody caught fails the workload. Byz workloads are
	// never Sim-pinned: the simulator reference run has no liar.
	Byz string
}

// Workloads is the registry, in run order.
var Workloads = []Workload{
	{Name: "election", Kind: "election", Genesis: "wl/e", Agreement: true},
	{Name: "vba-pinned", Kind: "vba", Genesis: "wl/v",
		Input:     func(int) []byte { return []byte("ok:pinned") },
		Predicate: "prefix:ok:", Agreement: true, Sim: true},
	{Name: "aba-unanimous", Kind: "aba", Genesis: "wl/a",
		Input: func(int) []byte { return []byte{1} }, Agreement: true, Sim: true},
	{Name: "vba-contested", Kind: "vba", Genesis: "wl/vc",
		Input:     func(i int) []byte { return []byte(fmt.Sprintf("ok:p%d", i)) },
		Predicate: "prefix:ok:", Agreement: true},
	{Name: "coin", Kind: "coin", Genesis: "wl/c"}, // weak coin: completion only
	{Name: "adkg", Kind: "adkg", Genesis: "wl/k", Agreement: true},
	{Name: "beacon", Kind: "beacon", Genesis: "wl/b", Epochs: 2, Agreement: true},
	{Name: "ledger", Kind: "ledger", Genesis: "wl/l", TxCount: 16, TxBytes: 64, Agreement: true},
	{Name: "vba-byz", Kind: "vba", Genesis: "wl/vz",
		Input:     func(i int) []byte { return []byte(fmt.Sprintf("ok:p%d", i)) },
		Predicate: "prefix:ok:", Agreement: true, Byz: "byz/vba-doublevote"},
	{Name: "adkg-byz", Kind: "adkg", Genesis: "wl/kz", Agreement: true, Byz: "byz/pvss-badshare"},
}

// WorkloadByName resolves one registry entry.
func WorkloadByName(name string) (Workload, error) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("nodenet: unknown workload %q", name)
}

// WorkloadResult is one workload's cross-process outcome.
type WorkloadResult struct {
	Name      string            `json:"name"`
	Tag       string            `json:"tag"`
	Decisions []*noded.Decision `json:"decisions"`
	Agreed    bool              `json:"agreed"`
	SimMatch  *bool             `json:"simMatch,omitempty"` // nil when not sim-comparable
	ElapsedMS int64             `json:"elapsedMs"`
}

// Run replays the workload on the cluster: launch on every party, drain
// (ledger), await all decisions, and evaluate the declared checks. A
// violated check is an error — agreement failures across real processes
// are exactly what this harness exists to catch.
func (w Workload) Run(cl *Cluster) (*WorkloadResult, error) {
	tag := "wl/" + w.Name
	start := time.Now()
	launch := func(i int) *noded.Request {
		req := w.request(tag, i)
		if w.Byz != "" && i == cl.N-1 {
			req.Byz = w.Byz
		}
		return req
	}
	if _, err := cl.CallAll(launch, 30*time.Second); err != nil {
		return nil, fmt.Errorf("workload %s: launch: %w", w.Name, err)
	}
	if w.Mid != nil {
		if err := w.Mid(); err != nil {
			return nil, fmt.Errorf("workload %s: mid-run fault: %w", w.Name, err)
		}
	}
	if w.Kind == "ledger" {
		if _, err := cl.CallAll(func(int) *noded.Request {
			return &noded.Request{Op: noded.OpDrain, Tag: tag}
		}, 30*time.Second); err != nil {
			return nil, fmt.Errorf("workload %s: drain: %w", w.Name, err)
		}
	}
	decs, err := cl.AwaitAll(tag)
	if err != nil {
		return nil, fmt.Errorf("workload %s: await: %w", w.Name, err)
	}
	res := &WorkloadResult{
		Name: w.Name, Tag: tag, Decisions: decs,
		Agreed:    kinds.Agree(decs),
		ElapsedMS: time.Since(start).Milliseconds(),
	}
	if err := w.check(decs); err != nil {
		return res, err
	}
	if w.Byz != "" {
		stats, err := cl.StatsAll()
		if err != nil {
			return res, fmt.Errorf("workload %s: stats: %w", w.Name, err)
		}
		var detected int64
		for _, s := range stats {
			detected += s.Rejected + s.Equivocations
		}
		if detected == 0 {
			return res, fmt.Errorf("workload %s: party %d lied (%s) but no process detected it",
				w.Name, cl.N-1, w.Byz)
		}
	}
	if w.Sim {
		simDec, err := w.SimDecision(cl.N, cl.F, cl.Seed)
		if err != nil {
			return res, fmt.Errorf("workload %s: sim run: %w", w.Name, err)
		}
		match := decs[0].Same(simDec)
		res.SimMatch = &match
		if !match {
			return res, fmt.Errorf("workload %s: process decision %+v != sim decision %+v",
				w.Name, decs[0], simDec)
		}
	}
	return res, nil
}

// check evaluates the decision-only invariants: agreement where declared,
// and noded.CheckLedger for a ledger.
func (w Workload) check(decs []*noded.Decision) error {
	if w.Agreement && !kinds.Agree(decs) {
		return fmt.Errorf("workload %s: processes disagree: %+v", w.Name, decs)
	}
	if w.Kind != "ledger" {
		return nil
	}
	if err := noded.CheckLedger(decs, w.TxCount, w.TxBytes); err != nil {
		return fmt.Errorf("workload %s: %w", w.Name, err)
	}
	return nil
}

// request is party i's launch request for the workload under tag, before
// any fault is assigned to the party.
func (w Workload) request(tag string, i int) *noded.Request {
	req := &noded.Request{
		Op: noded.OpLaunch, Kind: w.Kind, Tag: tag,
		Genesis:   []byte(w.Genesis),
		Predicate: w.Predicate,
		Epochs:    w.Epochs,
		TxCount:   w.TxCount, TxBytes: w.TxBytes,
	}
	if w.Input != nil {
		req.Input = w.Input(i)
	}
	return req
}

// SimDecision runs the same kind on the in-process simulator with the same
// seed and the inputs of the same launch requests, and returns the
// reference decision. Every kind of the kinds table can be run this way,
// the ledger included: exp.Launch stops it right after its start, where a
// process cluster drains it after every launch. The comparison is only
// meaningful for workloads whose outcome is pinned by the seed (w.Sim).
func (w Workload) SimDecision(n, f int, seed int64) (*noded.Decision, error) {
	c, err := harness.NewCluster(n, f, seed, harness.Options{})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	tag := "wl/" + w.Name
	ins := make([]kinds.Input, n)
	for i := range ins {
		if ins[i], err = w.request(tag, i).KindInput(); err != nil {
			return nil, err
		}
	}
	inst, err := exp.Launch(c, w.Kind, tag, []byte(w.Genesis), func(i int) kinds.Input { return ins[i] })
	if err != nil {
		return nil, err
	}
	if err := inst.Wait(ctx); err != nil {
		return nil, err
	}
	if !inst.Agreed() {
		return nil, fmt.Errorf("sim %s disagreed", w.Kind)
	}
	return inst.Decisions()[0], nil
}
