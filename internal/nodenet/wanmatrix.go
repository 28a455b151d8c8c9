package nodenet

// The WAN matrix: replay Table-1-style topologies (LAN baseline, uniform
// mid-RTT WAN, a 4-region geo matrix) on a real multi-process cluster.
//
// Every row is one Workload.Run and so carries that run's checks:
// agreement across processes, equality with the simulator for the
// validity-pinned decisions (the pinned VBA value, the unanimous ABA bit),
// and a ledger's exactly-once delivery. A violated check fails the matrix.
// Message counts, injected WAN delays and wall-clock are printed for
// inspection only: on a real transport they vary run to run, like the
// election's leader and the ledger's slot layout.

import (
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/livenet"
)

type wanProfile struct {
	name string
	wan  *livenet.WANProfile
}

// regionDelayMS is a 4-region one-way delay matrix shaped like the
// paper's Table 1 geo-distributed deployment (ms).
var regionDelayMS = [][]int{
	{0, 38, 83, 115},
	{38, 0, 110, 87},
	{83, 110, 0, 35},
	{115, 87, 35, 0},
}

func wanProfiles(n int) []wanProfile {
	matrix := make([][]time.Duration, len(regionDelayMS))
	for i, row := range regionDelayMS {
		matrix[i] = make([]time.Duration, len(row))
		for j, ms := range row {
			matrix[i][j] = time.Duration(ms) * time.Millisecond
		}
	}
	return []wanProfile{
		{name: "lan", wan: nil},
		{name: "uniform-30ms", wan: livenet.UniformWAN("uniform-30ms", n, livenet.LinkProfile{
			Delay: 30 * time.Millisecond, Jitter: 3 * time.Millisecond,
		})},
		{name: "regions-4", wan: livenet.RegionWAN("regions-4", n, matrix,
			2*time.Millisecond, 0.01)},
	}
}

// wanWorkloads are the matrix columns.
var wanWorkloads = []string{"election", "vba-pinned", "aba-unanimous", "ledger"}

// RunWANMatrix runs every workload on a 4-process cluster under every
// topology and prints one line per row to out. bin is the noded binary;
// empty builds one.
func RunWANMatrix(bin string, out io.Writer) error {
	const n, f = 4, 1
	const seed int64 = 1
	if bin == "" {
		dir, err := os.MkdirTemp("", "nodenet-wan-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		if bin, err = BuildNoded(dir); err != nil {
			return err
		}
	}
	for _, p := range wanProfiles(n) {
		cl, err := Launch(Options{N: n, F: f, Seed: seed, BinPath: bin, WAN: p.wan})
		if err != nil {
			return fmt.Errorf("nodenet: launch %s cluster: %w", p.name, err)
		}
		err = runWANProfile(cl, p.name, out)
		if stopErr := cl.Stop(60 * time.Second); err == nil {
			err = stopErr
		}
		cl.Close()
		if err != nil {
			return fmt.Errorf("nodenet: profile %s: %w", p.name, err)
		}
	}
	return nil
}

func runWANProfile(cl *Cluster, profile string, out io.Writer) error {
	for _, name := range wanWorkloads {
		w, err := WorkloadByName(name)
		if err != nil {
			return err
		}
		before, err := cl.StatsAll()
		if err != nil {
			return err
		}
		res, err := w.Run(cl)
		if err != nil {
			return err
		}
		after, err := cl.StatsAll()
		if err != nil {
			return err
		}
		var msgs, frames, wanDelays int64
		for i := range after {
			msgs += after[i].Msgs - before[i].Msgs
			frames += after[i].Frames - before[i].Frames
			wanDelays += after[i].WANDelays - before[i].WANDelays
		}
		fmt.Fprintf(out, "ok   %-12s %-14s msgs=%d frames=%d wanDelays=%d elapsed=%dms\n",
			profile, name, msgs, frames, wanDelays, res.ElapsedMS)
	}
	return nil
}
