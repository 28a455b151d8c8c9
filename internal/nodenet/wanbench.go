package nodenet

// The WAN benchmark matrix: replay Table-1-style topologies (LAN baseline,
// uniform mid-RTT WAN, a 4-region geo matrix) on a real multi-process
// cluster and commit the outcome as BENCH_wan.json.
//
// What is gated vs informational follows the same rule as the other BENCH
// artifacts: only facts the protocol forces are compared on regeneration.
// Validity-forced decisions (the pinned VBA value, the unanimous ABA bit)
// are deterministic regardless of transport timing — those rows gate.
// Election leaders, message counts, wall-clock, and ledger slot layout
// vary run to run on a real transport and are recorded for inspection
// only (agreement itself is still enforced on every row).

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/livenet"
	"repro/internal/noded"
)

// WANBenchRow is one (profile, workload) cell.
type WANBenchRow struct {
	Profile  string `json:"profile"`
	Workload string `json:"workload"`
	Gated    bool   `json:"gated"`  // decision compared on regeneration
	Agreed   bool   `json:"agreed"` // all processes decided identically

	// Decision is the canonical (per-party-field-free) decision, present
	// only on gated rows.
	Decision *noded.Decision `json:"decision,omitempty"`

	// Informational: never compared.
	Msgs      int64 `json:"msgs"`
	Frames    int64 `json:"frames"`
	WANDelays int64 `json:"wanDelays"`
	WANLosses int64 `json:"wanLosses"`
	ElapsedMS int64 `json:"elapsedMs"`
}

// WANBenchDoc is the committed artifact.
type WANBenchDoc struct {
	N    int           `json:"n"`
	F    int           `json:"f"`
	Seed int64         `json:"seed"`
	Rows []WANBenchRow `json:"rows"`
}

type benchProfile struct {
	name string
	wan  *livenet.WANProfile
}

// benchRegionDelayMS is a 4-region one-way delay matrix shaped like the
// paper's Table 1 geo-distributed deployment (ms).
var benchRegionDelayMS = [][]int{
	{0, 38, 83, 115},
	{38, 0, 110, 87},
	{83, 110, 0, 35},
	{115, 87, 35, 0},
}

func benchProfiles(n int) []benchProfile {
	matrix := make([][]time.Duration, len(benchRegionDelayMS))
	for i, row := range benchRegionDelayMS {
		matrix[i] = make([]time.Duration, len(row))
		for j, ms := range row {
			matrix[i][j] = time.Duration(ms) * time.Millisecond
		}
	}
	return []benchProfile{
		{name: "lan", wan: nil},
		{name: "uniform-30ms", wan: livenet.UniformWAN("uniform-30ms", n, livenet.LinkProfile{
			Delay: 30 * time.Millisecond, Jitter: 3 * time.Millisecond,
		})},
		{name: "regions-4", wan: livenet.RegionWAN("regions-4", n, matrix,
			2*time.Millisecond, 0.01)},
	}
}

// benchWorkloads are the matrix columns; the bool marks gated rows. Only
// validity-forced decisions gate: the pinned VBA value and the unanimous
// ABA bit are fixed by the protocol regardless of message timing. The
// election leader depends on which coin shares aggregate first, so under
// WAN reordering it varies run to run (agreement across processes still
// holds and is still enforced) — informational, like the ledger's
// timing-dependent slot layout.
var benchWorkloads = []struct {
	name  string
	gated bool
}{
	{"election", false},
	{"vba-pinned", true},
	{"aba-unanimous", true},
	{"ledger", false},
}

// RunWANBench regenerates the WAN matrix artifact at outPath. With check
// set, it first loads the committed artifact and fails on any drift in the
// gated fields (config, agreement, gated decisions) — informational fields
// are expected to move.
func RunWANBench(outPath, binPath string, check bool) error {
	const n, f = 4, 1
	const seed int64 = 1

	var prev *WANBenchDoc
	if check {
		raw, err := os.ReadFile(outPath)
		if err != nil {
			return fmt.Errorf("nodenet: -check needs a committed artifact: %w", err)
		}
		prev = &WANBenchDoc{}
		if err := json.Unmarshal(raw, prev); err != nil {
			return fmt.Errorf("nodenet: parse committed %s: %w", outPath, err)
		}
	}

	dir, err := os.MkdirTemp("", "wanbench-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if binPath == "" {
		if binPath, err = BuildNoded(dir); err != nil {
			return err
		}
	}

	doc := &WANBenchDoc{N: n, F: f, Seed: seed}
	for _, p := range benchProfiles(n) {
		cl, err := Launch(Options{N: n, F: f, Seed: seed, BinPath: binPath, WAN: p.wan})
		if err != nil {
			return fmt.Errorf("nodenet: launch %s cluster: %w", p.name, err)
		}
		rows, err := runBenchProfile(cl, p.name)
		stopErr := cl.Stop(60 * time.Second)
		cl.Close()
		if err == nil {
			err = stopErr
		}
		if err != nil {
			return fmt.Errorf("nodenet: profile %s: %w", p.name, err)
		}
		doc.Rows = append(doc.Rows, rows...)
	}

	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d rows)\n", outPath, len(doc.Rows))
	if check {
		if err := diffWANBench(prev, doc); err != nil {
			return err
		}
		fmt.Println("gated fields match the committed artifact")
	}
	return nil
}

func runBenchProfile(cl *Cluster, profile string) ([]WANBenchRow, error) {
	var rows []WANBenchRow
	for _, bw := range benchWorkloads {
		w, err := WorkloadByName(bw.name)
		if err != nil {
			return nil, err
		}
		w.Sim = false // agreement + gating carry the check; sim runs in CI smoke
		before, err := cl.StatsAll()
		if err != nil {
			return nil, err
		}
		res, err := w.Run(cl)
		if err != nil {
			return nil, err
		}
		after, err := cl.StatsAll()
		if err != nil {
			return nil, err
		}
		row := WANBenchRow{
			Profile: profile, Workload: bw.name,
			Gated: bw.gated, Agreed: res.Agreed,
			ElapsedMS: res.ElapsedMS,
		}
		for i := range after {
			row.Msgs += after[i].Msgs - before[i].Msgs
			row.Frames += after[i].Frames - before[i].Frames
			row.WANDelays += after[i].WANDelays - before[i].WANDelays
			row.WANLosses += after[i].WANLosses - before[i].WANLosses
		}
		if bw.gated {
			row.Decision = res.Decisions[0].Canonical()
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// diffWANBench compares the gated surface of two artifacts.
func diffWANBench(prev, next *WANBenchDoc) error {
	if prev.N != next.N || prev.F != next.F || prev.Seed != next.Seed {
		return fmt.Errorf("nodenet: config drifted: committed n=%d f=%d seed=%d, regenerated n=%d f=%d seed=%d",
			prev.N, prev.F, prev.Seed, next.N, next.F, next.Seed)
	}
	if len(prev.Rows) != len(next.Rows) {
		return fmt.Errorf("nodenet: row count drifted: %d committed, %d regenerated", len(prev.Rows), len(next.Rows))
	}
	for i := range next.Rows {
		a, b := prev.Rows[i], next.Rows[i]
		id := fmt.Sprintf("%s/%s", b.Profile, b.Workload)
		if a.Profile != b.Profile || a.Workload != b.Workload || a.Gated != b.Gated {
			return fmt.Errorf("nodenet: row %d identity drifted: committed %s/%s, regenerated %s",
				i, a.Profile, a.Workload, id)
		}
		if !b.Agreed {
			return fmt.Errorf("nodenet: %s: processes disagreed", id)
		}
		if a.Agreed != b.Agreed {
			return fmt.Errorf("nodenet: %s: agreement drifted", id)
		}
		if b.Gated {
			if a.Decision == nil || b.Decision == nil || !a.Decision.Same(b.Decision) ||
				a.Decision.Tag != b.Decision.Tag {
				return fmt.Errorf("nodenet: %s: gated decision drifted:\ncommitted   %+v\nregenerated %+v",
					id, a.Decision, b.Decision)
			}
		}
	}
	return nil
}
