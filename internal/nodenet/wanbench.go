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

// gated is the part of the document a regeneration must reproduce: the
// config, each row's identity and agreement, and the gated decisions.
func (d *WANBenchDoc) gated() any {
	g := *d
	g.Rows = make([]WANBenchRow, len(d.Rows))
	for i, r := range d.Rows {
		g.Rows[i] = WANBenchRow{Profile: r.Profile, Workload: r.Workload,
			Gated: r.Gated, Agreed: r.Agreed, Decision: r.Decision}
	}
	return g
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

// benchWorkloads are the matrix columns. Only the validity-pinned ones
// (Workload.Sim: the pinned VBA value, the unanimous ABA bit) gate their
// decision, which the protocol fixes regardless of message timing. The
// election leader depends on which coin shares aggregate first, so under
// WAN reordering it varies run to run (agreement across processes still
// holds and is still enforced) — informational, like the ledger's
// timing-dependent slot layout.
var benchWorkloads = []string{"election", "vba-pinned", "aba-unanimous", "ledger"}

// RunWANBench regenerates the WAN matrix artifact at outPath. With check
// set, it fails on any drift in the gated part of the committed artifact
// — informational fields are expected to move.
func RunWANBench(outPath, binPath string, check bool) error {
	const n, f = 4, 1
	const seed int64 = 1
	return regenerate(outPath, binPath, check, func(bin string) (*WANBenchDoc, error) {
		doc := &WANBenchDoc{N: n, F: f, Seed: seed}
		for _, p := range benchProfiles(n) {
			cl, err := Launch(Options{N: n, F: f, Seed: seed, BinPath: bin, WAN: p.wan})
			if err != nil {
				return nil, fmt.Errorf("nodenet: launch %s cluster: %w", p.name, err)
			}
			rows, err := runBenchProfile(cl, p.name)
			stopErr := cl.Stop(60 * time.Second)
			cl.Close()
			if err == nil {
				err = stopErr
			}
			if err != nil {
				return nil, fmt.Errorf("nodenet: profile %s: %w", p.name, err)
			}
			doc.Rows = append(doc.Rows, rows...)
		}
		return doc, nil
	})
}

func runBenchProfile(cl *Cluster, profile string) ([]WANBenchRow, error) {
	var rows []WANBenchRow
	for _, name := range benchWorkloads {
		w, err := WorkloadByName(name)
		if err != nil {
			return nil, err
		}
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
			Profile: profile, Workload: name,
			Gated: w.Sim, Agreed: res.Agreed,
			ElapsedMS: res.ElapsedMS,
		}
		for i := range after {
			row.Msgs += after[i].Msgs - before[i].Msgs
			row.Frames += after[i].Frames - before[i].Frames
			row.WANDelays += after[i].WANDelays - before[i].WANDelays
			row.WANLosses += after[i].WANLosses - before[i].WANLosses
		}
		if w.Sim {
			row.Decision = res.Decisions[0].Canonical()
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// regenerate rewrites one committed artifact: under check it first reads
// the committed document, then builds noded (when bin is empty), runs,
// writes the new document, and fails unless both gated parts marshal to
// the same bytes.
func regenerate[D interface{ gated() any }](outPath, bin string, check bool, run func(bin string) (D, error)) error {
	var prev D
	if check {
		raw, err := os.ReadFile(outPath)
		if err != nil {
			return fmt.Errorf("nodenet: -check needs a committed artifact: %w", err)
		}
		if err := json.Unmarshal(raw, &prev); err != nil {
			return fmt.Errorf("nodenet: parse committed %s: %w", outPath, err)
		}
	}
	if bin == "" {
		dir, err := os.MkdirTemp("", "nodenet-bench-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		if bin, err = BuildNoded(dir); err != nil {
			return err
		}
	}
	doc, err := run(bin)
	if err != nil {
		return err
	}
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", outPath)
	if !check {
		return nil
	}
	want, _ := json.Marshal(prev.gated())
	got, _ := json.Marshal(doc.gated())
	if string(want) != string(got) {
		return fmt.Errorf("nodenet: gated fields of %s drifted:\ncommitted   %s\nregenerated %s", outPath, want, got)
	}
	fmt.Println("gated fields match the committed artifact")
	return nil
}
