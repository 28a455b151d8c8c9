package main

import "time"

// The benchmark's vocabulary. BENCHMARK.json at the repository root carries
// the same names, units, directions and bounds; a unit test holds the two
// together.

type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: tolerated worsening, as a share of the parent's median
}

// endToEnd is what a user of the ledger sees. Every workload reports every
// one of them, measured with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"commit_p50_ms", "ms", "lower", 0.25},
	{"commit_p75_ms", "ms", "lower", 0.25},
	{"tx_per_s", "1/s", "higher", 0.25},
}

// cpuSelf are the layers a CPU profile is partitioned into; cpu.other is
// the remainder, so the shares sum to one.
var cpuSelf = []string{
	"avss", "pedersen", "sig", "group", "field", "vrf", "coin", "wcs", "seeding", "aba",
	"rbc", "rs", "merkle", "wire", "livenet", "runtime", "syscall",
}

var cpuCum = []string{"avss", "pedersen", "sig", "coin", "aba", "rbc", "rs", "abc"}

// perLayer is what a traced run reports, layer = package name.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"bench.gen_late_p99_ms", "ms", "lower", 0},
		{"bench.cpu_util", "share", "higher", 0},
		{"bench.trace_overhead_share", "share", "lower", 0},

		{"abc.mempool_wait_p50_ms", "ms", "lower", 0},
		{"abc.slot_p50_ms", "ms", "lower", 0},
		{"abc.slot_p90_ms", "ms", "lower", 0},
		{"abc.slots_per_s", "1/s", "higher", 0},
		{"abc.tx_per_slot", "count", "higher", 0},
		{"abc.entries_per_slot", "count", "higher", 0},
		{"abc.msgs_per_slot", "count", "lower", 0},
		{"abc.wire_kb_per_slot", "kB", "lower", 0},
		{"abc.heap_kb_per_slot", "kB", "lower", 0},

		{"rbc.avid_1k_ms", "ms", "lower", 0},
		{"rbc.avid_256k_ms", "ms", "lower", 0},
		{"coin.flip_ms", "ms", "lower", 0},
		{"aba.decide_ms", "ms", "lower", 0},
		{"aba.split_decide_ms", "ms", "lower", 0},
		{"aba.split_rounds", "count", "lower", 0},
		{"election.elect_ms", "ms", "lower", 0},
		{"vba.agree_ms", "ms", "lower", 0},
		{"adkg.generate_ms", "ms", "lower", 0},
	}
	for _, l := range cpuSelf {
		defs = append(defs, metricDef{"cpu." + l, "share", "lower", 0})
	}
	defs = append(defs, metricDef{"cpu.other", "share", "lower", 0})
	for _, l := range cpuCum {
		defs = append(defs, metricDef{"cpu_cum." + l, "share", "lower", 0})
	}
	return append(defs, []metricDef{
		{"pedersen.verify_share_us", "us", "lower", 0},
		{"pedersen.commit_us", "us", "lower", 0},
		{"sig.verify_us", "us", "lower", 0},
		{"sig.sign_us", "us", "lower", 0},
		{"group.mul_us", "us", "lower", 0},
		{"group.from_bytes_us", "us", "lower", 0},
		{"vrf.verify_us", "us", "lower", 0},
		{"vrf.eval_us", "us", "lower", 0},
		{"vcache.hit_us", "us", "lower", 0},
		{"rs.encode_256k_ms", "ms", "lower", 0},
		{"rs.decode_parity_256k_ms", "ms", "lower", 0},
		{"rs.decode_systematic_256k_us", "us", "lower", 0},
		{"merkle.build_256k_us", "us", "lower", 0},
		{"merkle.verify_us", "us", "lower", 0},
		{"wire.roundtrip_ns", "ns", "lower", 0},
		{"wire.allocs_per_msg", "count", "lower", 0},
		{"wal.append_us", "us", "lower", 0},
		{"wal.sync_us", "us", "lower", 0},
		{"livenet.dispatch_us", "us", "lower", 0},
		{"livenet.tcp_rtt_us", "us", "lower", 0},
		{"sim.dispatch_ns", "ns", "lower", 0},

		{"vcache.cold_per_slot", "count", "lower", 0},
		{"vcache.hit_ratio", "share", "higher", 0},
		{"rs.ops_per_slot", "count", "lower", 0},
		{"rs.tree_hit_ratio", "share", "higher", 0},
		{"livenet.frames_per_syscall", "count", "higher", 0},
		{"livenet.rejected", "count", "lower", 0},

		{"noded.msgs_per_tx", "count", "lower", 0},
		{"noded.wire_bytes_per_tx", "B", "lower", 0},
		{"noded.frames_per_syscall", "count", "higher", 0},
		{"noded.resends", "count", "lower", 0},
		{"wal.appends_per_tx", "count", "lower", 0},
		{"wal.syncs_per_tx", "count", "lower", 0},
		{"noded.rejoin_s", "s", "lower", 0},
		{"noded.replayed_records", "count", "lower", 0},
		{"noded.replay_us_per_record", "us", "lower", 0},
		{"noded.self_mismatches", "count", "lower", 0},
		{"noded.wal_off_tx_per_s", "1/s", "higher", 0},
		{"noded.wal_overhead_share", "share", "lower", 0},
		{"noded.round_iqr_share", "share", "lower", 0},
	}...)
}()

// workload is one set of inputs. Exactly one of ledger and proc is set.
type workload struct {
	name   string
	why    string
	ledger *ledgerShape
	proc   *procShape
}

// smallLedger is the lan-small shape; proc-wal's traced run borrows it for
// the spans and the CPU profile that noded cannot give (see README).
var smallLedger = ledgerShape{txBytes: 64, batchBytes: 1 << 10, rate: 200, warmup: 3 * time.Second}

var workloads = []workload{
	{
		name:   "lan-small",
		why:    "in-process, open loop 200 tx/s of 64 B txs in 1 KiB batches, no injected delay: consensus-CPU-bound, latency is processor time only",
		ledger: &smallLedger,
	},
	{
		name:   "lan-bulk",
		why:    "in-process, closed loop of one client per 1 MiB mempool, 1 KiB txs in 256 KiB batches: data-plane-bound (AVID, RS, Merkle, wire blobs, mesh flush)",
		ledger: &ledgerShape{txBytes: 1 << 10, batchBytes: 256 << 10, mempoolBytes: 1 << 20, warmup: 2 * time.Second, episode: 5 * time.Second},
	},
	{
		name:   "wan-small",
		why:    "lan-small's txs at 50 tx/s over 20 ms one-way links: delay-bound, latency is causal rounds x 20 ms, the bypass workload for CPU work",
		ledger: &ledgerShape{txBytes: 64, batchBytes: 1 << 10, rate: 50, oneWay: 20 * time.Millisecond, warmup: 3 * time.Second},
	},
	{
		name: "proc-wal",
		why:  "four noded processes with WALs, rounds of 128 preloaded 64 B txs per party: the deployed shape, per-process caches and the fsync barrier",
		proc: &procShape{txCount: 128, txBytes: 64, batchBytes: 1 << 10},
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
