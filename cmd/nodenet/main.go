// Command nodenet stands up a multi-process cluster — n noded OS processes
// on loopback — and replays named workloads against it over the control
// RPC, checking cross-process agreement, a ledger's exactly-once delivery,
// and (where the outcome is pinned by the seed) equality with the
// in-process simulator.
//
// Usage:
//
//	nodenet -n 4 -workloads election,vba-pinned,ledger
//	nodenet -n 4 -workloads all -wan-delay 20ms -wan-jitter 5ms
//	nodenet -n 4 -workloads election -sever 1:2   # kill a link mid-run
//	nodenet -n 4 -workloads ledger -wal -restart 2   # SIGKILL+rejoin party 2
//	nodenet -bench BENCH_wan.json                 # WAN matrix artifact
//	nodenet -bench BENCH_wan.json -check          # regenerate + diff-gate
//	nodenet -n 4 -chaos                           # seeded kill/restart sweep
//	nodenet -n 7 -chaos -bench BENCH_chaos.json -check   # f kills, diff-gated
//
// Exit status is nonzero on any agreement violation, sim mismatch, failed
// workload, or (under -check) artifact drift.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/livenet"
	"repro/internal/nodenet"
)

func main() {
	n := flag.Int("n", 4, "party count")
	f := flag.Int("f", -1, "fault bound (-1 selects floor((n-1)/3))")
	seed := flag.Int64("seed", 1, "cluster seed (keys, WAN replay)")
	bin := flag.String("bin", "", "noded binary (empty builds ./cmd/noded)")
	workloads := flag.String("workloads", "election,vba-pinned,ledger", "comma-separated workload names, or 'all'")
	wanDelay := flag.Duration("wan-delay", 0, "uniform WAN one-way delay (0 = no emulation)")
	wanJitter := flag.Duration("wan-jitter", 0, "uniform WAN jitter")
	wanLoss := flag.Float64("wan-loss", 0, "uniform WAN loss probability [0,1)")
	sever := flag.String("sever", "", "kill one mesh connection mid-run, as from:to")
	wal := flag.Bool("wal", false, "enable per-party write-ahead logs (crash recovery)")
	restart := flag.Int("restart", -1, "SIGKILL this party mid-run and restart it from its WAL (needs -wal)")
	chaos := flag.Bool("chaos", false, "run the seeded chaos sweep (f kill/restart cycles) instead of workloads")
	bench := flag.String("bench", "", "write this artifact: the WAN benchmark matrix, or with -chaos the chaos sweep")
	check := flag.Bool("check", false, "with -bench: fail if gated fields drift from the committed artifact")
	flag.Parse()

	chaosOpts := nodenet.ChaosOptions{N: *n, F: *f, Seed: *seed, BinPath: *bin}
	if *bench != "" {
		var err error
		if *chaos {
			err = nodenet.RunChaosBench(*bench, chaosOpts, *check)
		} else {
			err = nodenet.RunWANBench(*bench, *bin, *check)
		}
		if err != nil {
			fatal(err)
		}
		return
	}
	if *chaos {
		doc, err := nodenet.RunChaos(chaosOpts)
		if err != nil {
			fatal(err)
		}
		for _, r := range doc.Rounds {
			fmt.Printf("ok   %-14s txs=%d kills=%v elapsed=%dms set=%s\n",
				r.Tag, r.Txs, r.Kills, r.ElapsedMS, r.TxSet[:16])
		}
		fmt.Printf("chaos restarts=%d replayedFrames=%d compactions=%d\n",
			doc.Restarts, doc.ReplayedFrames, doc.WALCompactions)
		return
	}
	if *restart >= 0 && !*wal {
		fatal(fmt.Errorf("nodenet: -restart needs -wal (no journal to recover from)"))
	}

	var wan *livenet.WANProfile
	if *wanDelay > 0 || *wanJitter > 0 || *wanLoss > 0 {
		wan = livenet.UniformWAN("uniform", *n, livenet.LinkProfile{
			Delay: *wanDelay, Jitter: *wanJitter, Loss: *wanLoss,
		})
	}
	names := selectWorkloads(*workloads)
	cl, err := nodenet.Launch(nodenet.Options{
		N: *n, F: *f, Seed: *seed, BinPath: *bin, WAN: wan, WAL: *wal,
	})
	if err != nil {
		fatal(err)
	}
	defer cl.Close()

	failed := false
	for _, name := range names {
		w, err := nodenet.WorkloadByName(name)
		if err != nil {
			fatal(err)
		}
		if *sever != "" {
			from, to, err := parseSever(*sever)
			if err != nil {
				fatal(err)
			}
			// Launch first, cut the link while the instance is in flight.
			time.AfterFunc(50*time.Millisecond, func() { cl.Sever(from, to) })
		}
		if *restart >= 0 {
			victim := *restart
			// SIGKILL after launch lands, restart from the WAL, and only
			// then let the workload drain/await — the restarted process
			// must replay its journal, rejoin, and still reach agreement.
			w.Mid = func() error {
				time.Sleep(50 * time.Millisecond)
				if err := cl.Kill(victim); err != nil {
					return err
				}
				return cl.Restart(victim)
			}
		}
		res, err := w.Run(cl)
		if err != nil {
			fmt.Fprintf(os.Stderr, "FAIL %s: %v\n", name, err)
			failed = true
			continue
		}
		line := fmt.Sprintf("ok   %-14s agreed=%v elapsed=%dms", res.Name, res.Agreed, res.ElapsedMS)
		if res.SimMatch != nil {
			line += fmt.Sprintf(" sim-match=%v", *res.SimMatch)
		}
		fmt.Println(line)
	}
	if stats, err := cl.StatsAll(); err == nil {
		var msgs, frames, redials, wanDelays int64
		for _, s := range stats {
			msgs += s.Msgs
			frames += s.Frames
			redials += s.Redials
			wanDelays += s.WANDelays
		}
		fmt.Printf("stats msgs=%d frames=%d redials=%d wanDelays=%d\n", msgs, frames, redials, wanDelays)
	}
	if err := cl.Stop(60 * time.Second); err != nil {
		fatal(err)
	}
	if failed {
		os.Exit(1)
	}
}

func selectWorkloads(sel string) []string {
	if sel == "all" {
		names := make([]string, len(nodenet.Workloads))
		for i, w := range nodenet.Workloads {
			names[i] = w.Name
		}
		return names
	}
	return strings.Split(sel, ",")
}

func parseSever(s string) (int, int, error) {
	parts := strings.SplitN(s, ":", 2)
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("nodenet: -sever wants from:to, got %q", s)
	}
	from, err1 := strconv.Atoi(parts[0])
	to, err2 := strconv.Atoi(parts[1])
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("nodenet: -sever wants from:to, got %q", s)
	}
	return from, to, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
