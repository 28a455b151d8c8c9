package main

import (
	"fmt"
	"runtime"
	"sort"
)

// runWorkload executes one workload under the plan and turns what the
// drivers measured into named metrics: the end-to-end ones from an untraced
// run, the per-layer ones from a traced run.
func runWorkload(env *procEnv, w *workload, seed int64, p plan) (*runReport, error) {
	if p.traced {
		return runTraced(env, w, seed, p)
	}
	m := metricSet{}
	var attempted, failed int
	var problems, notes []string
	if w.ledger != nil {
		res, err := runLedger(*w.ledger, seed, p)
		if err != nil {
			return nil, err
		}
		p50, p75 := stretchPercentile(res.samples, 50), stretchPercentile(res.samples, 75)
		_, beyond := slotPercentile(res.samples, 75)
		rate := median(res.rates)
		m.putCorrected("setup_s", median(res.setups), median(res.setupsRaw), len(res.setups))
		m.putCorrected("commit_p50_ms", p50/res.slowdown, p50, len(res.samples))
		m.putCorrected("commit_p75_ms", p75/res.slowdown, p75, len(res.samples))
		if w.ledger.rate > 0 {
			// Open loop: what commits per second is what was offered,
			// whatever the processors' speed.
			m.put("tx_per_s", rate, res.txs)
		} else {
			m.putCorrected("tx_per_s", rate*res.slowdown, rate, res.txs)
		}
		attempted, failed, problems = res.submitted, res.failed, res.problems
		if res.speedN > 0 {
			notes = append(notes, fmt.Sprintf("the reference operation took %.2fx its reference time over the window (%d samples)", res.slowdown, res.speedN))
		}
		sorted := msValues(res.samples)
		notes = append(notes,
			fmt.Sprintf("latency over the whole window, as measured: p50 %.0f  p75 %.0f  p90 %.0f  p95 %.0f  p99 %.0f ms",
				percentile(sorted, 50), percentile(sorted, 75), percentile(sorted, 90), percentile(sorted, 95), percentile(sorted, 99)),
			fmt.Sprintf("%d txs due in the window rode %d slots; %d slots lie beyond p75; highest percentile with %d slots beyond it: p%g",
				len(res.samples), res.slots, beyond, tailSupport, highestSupported(res.samples, []float64{50, 75, 90, 95, 99})),
			fmt.Sprintf("process CPU / (wall x nproc) = %.2f", res.counters.cpuSeconds/(res.window.Seconds()*float64(runtime.NumCPU()))))
		if len(res.genLate) > 0 {
			sort.Float64s(res.genLate)
			notes = append(notes, fmt.Sprintf("open-loop generator ran late by p99 %.2f ms", percentile(res.genLate, 99)))
		}
	} else {
		res, err := env.runProc(*w.proc, seed, p)
		if err != nil {
			return nil, err
		}
		rounds := append([]float64(nil), res.rounds...)
		sort.Float64s(rounds)
		raw := append([]float64(nil), res.roundsRaw...)
		sort.Float64s(raw)
		m.putCorrected("setup_s", median(res.setups), median(res.setupsRaw), len(res.setups))
		m.putCorrected("commit_p50_ms", 1000*median(rounds), 1000*median(raw), len(rounds))
		m.putCorrected("commit_p75_ms", 1000*percentile(rounds, 75), 1000*percentile(raw, 75), len(rounds))
		m.putCorrected("tx_per_s", float64(res.roundTxs)/median(rounds), float64(res.roundTxs)/median(raw), len(rounds))
		attempted, failed, problems = res.attempted, res.failed, res.problems
		q1, _, q3 := quartiles(rounds)
		notes = append(notes,
			fmt.Sprintf("the sample is the round (launch -> every await returned, %d txs): %d rounds, quartiles %.0f..%.0f ms; noded has no per-tx commit stream",
				res.roundTxs, len(rounds), 1000*q1, 1000*q3))
	}
	r, err := newRunReport(w, endToEnd, m)
	if err != nil {
		return nil, err
	}
	r.close(attempted, failed, problems)
	r.Notes = notes
	return r, nil
}

// runTraced produces every per-layer metric. The ledger spans, counters and
// CPU profile come from the workload's own shape on the in-process driver;
// proc-wal, whose processes expose none of that, borrows lan-small's shape
// for them. The noded.* and wal.*_per_tx metrics come from a process
// cluster in every traced run, and so do the protocol spans and the leaf
// timings, so that one traced run of any workload names every layer.
func runTraced(env *procEnv, w *workload, seed int64, p plan) (*runReport, error) {
	m := metricSet{}
	var notes []string

	shape := smallLedger
	if w.ledger != nil {
		shape = *w.ledger
	} else {
		notes = append(notes, "abc.*, cpu.*, vcache.*, rs.*_per_slot and livenet.* are from an in-process cluster of lan-small's shape")
	}
	lp := p
	lp.window, lp.setups = p.window/2, 1
	lres, err := runLedger(shape, seed, lp)
	if err != nil {
		return nil, fmt.Errorf("traced ledger: %w", err)
	}
	if err := ledgerLayerMetrics(m, lres); err != nil {
		return nil, err
	}
	tracedP50, _ := slotPercentile(lres.traced, 50)
	notes = append(notes, fmt.Sprintf("over the traced segments, as measured: commit p50 %.1f ms; abc.mempool_wait_p50_ms + abc.slot_p50_ms = %.1f ms",
		tracedP50, m["abc.mempool_wait_p50_ms"].value+m["abc.slot_p50_ms"].value))

	pshape := workloadByName("proc-wal").proc
	pp := p
	pp.setups = 1
	if w.proc != nil {
		pshape, pp.window = w.proc, p.window/2
	} else {
		pp.window = p.window / 4
	}
	pres, err := env.runProc(*pshape, seed, pp)
	if err != nil {
		return nil, fmt.Errorf("traced process cluster: %w", err)
	}
	if err := procLayerMetrics(m, pres); err != nil {
		return nil, err
	}

	if err := protocolSpans(m, seed, p.spanReps); err != nil {
		return nil, fmt.Errorf("protocol spans: %w", err)
	}
	if err := leafTimings(m, p.leafCalls, env.workDir); err != nil {
		return nil, fmt.Errorf("leaf timings: %w", err)
	}

	r, err := newRunReport(w, perLayer, m)
	if err != nil {
		return nil, err
	}
	r.close(lres.submitted+pres.attempted, lres.failed+pres.failed, append(lres.problems, pres.problems...))
	r.Notes = append(notes, "adkg.generate_ms runs over the simulated pairing group: a cost model, not a hardware number")
	return r, nil
}

func ledgerLayerMetrics(m metricSet, res *ledgerResult) error {
	if res.slots == 0 || len(res.plain) == 0 || len(res.traced) == 0 {
		return fmt.Errorf("traced ledger committed %d slots, %d/%d samples", res.slots, len(res.plain), len(res.traced))
	}
	slots := float64(res.slots)
	c := res.counters
	late := 0.0
	if len(res.genLate) > 0 {
		sort.Float64s(res.genLate)
		late = percentile(res.genLate, 99)
	}
	m.put("bench.gen_late_p99_ms", late, len(res.genLate))
	m.put("bench.cpu_util", c.cpuSeconds/(res.window.Seconds()*float64(runtime.NumCPU())), 1)
	plain, _ := slotPercentile(res.plain, 50)
	traced, _ := slotPercentile(res.traced, 50)
	m.put("bench.trace_overhead_share", traced/plain-1, len(res.traced))

	m.put("abc.mempool_wait_p50_ms", median(res.mempoolWait), len(res.mempoolWait))
	s50, _ := slotPercentile(res.slotSpans, 50)
	s90, _ := slotPercentile(res.slotSpans, 90)
	m.put("abc.slot_p50_ms", s50, len(res.slotSpans))
	m.put("abc.slot_p90_ms", s90, len(res.slotSpans))
	m.put("abc.slots_per_s", slots/res.window.Seconds(), res.slots)
	m.put("abc.tx_per_slot", float64(res.txs)/slots, res.slots)
	m.put("abc.entries_per_slot", float64(res.entries)/slots, res.slots)
	m.put("abc.msgs_per_slot", float64(c.msgs)/slots, res.slots)
	m.put("abc.wire_kb_per_slot", float64(c.wireBytes)/1000/slots, res.slots)
	m.put("abc.heap_kb_per_slot", float64(c.heapBytes)/1000/slots, res.slots)

	m.put("vcache.cold_per_slot", float64(c.vCold)/slots, res.slots)
	m.put("vcache.hit_ratio", float64(c.vHits)/float64(c.vLookups), int(c.vLookups))
	m.put("rs.ops_per_slot", float64(c.rsOps)/slots, res.slots)
	m.put("rs.tree_hit_ratio", float64(c.treeHits)/float64(c.treeHits+c.treeBuilds), int(c.treeHits+c.treeBuilds))
	m.put("livenet.frames_per_syscall", float64(c.frames)/float64(c.syscalls), int(c.syscalls))
	m.put("livenet.rejected", float64(c.rejected), 1)

	var stacks []stackSample
	for _, raw := range res.profiles {
		s, err := parseProfile(raw)
		if err != nil {
			return err
		}
		stacks = append(stacks, s...)
	}
	attr := attribute(stacks)
	if attr.total == 0 {
		return fmt.Errorf("the CPU profile of the traced segments is empty")
	}
	other := 1.0
	for _, l := range cpuSelf {
		m.put("cpu."+l, attr.self[l], len(stacks))
		other -= attr.self[l]
	}
	m.put("cpu.other", other, len(stacks))
	for _, l := range cpuCum {
		m.put("cpu_cum."+l, attr.cum[l], len(stacks))
	}
	return nil
}

func procLayerMetrics(m metricSet, res *procResult) error {
	if len(res.rounds) == 0 || !res.killed || len(res.walOffRounds) == 0 {
		return fmt.Errorf("traced process cluster did not finish: %d rounds, kill round %v, %d wal-off rounds: %v",
			len(res.rounds), res.killed, len(res.walOffRounds), res.problems)
	}
	txs := float64(len(res.rounds) * res.roundTxs)
	s := res.steady
	m.put("noded.msgs_per_tx", float64(s.Msgs)/txs, len(res.rounds))
	m.put("noded.wire_bytes_per_tx", float64(s.Bytes)/txs, len(res.rounds))
	m.put("noded.frames_per_syscall", float64(s.Frames)/float64(s.Syscalls), int(s.Syscalls))
	m.put("noded.resends", float64(s.Resends+res.killResends), 1)
	m.put("wal.appends_per_tx", float64(s.WALAppends)/txs, len(res.rounds))
	m.put("wal.syncs_per_tx", float64(s.WALSyncs)/txs, len(res.rounds))
	m.put("noded.rejoin_s", res.rejoinS, 1)
	m.put("noded.replayed_records", float64(res.victim.ReplayedRecords), 1)
	m.put("noded.replay_us_per_record", 1e6*res.restartS/float64(res.victim.ReplayedRecords), 1)
	m.put("noded.self_mismatches", float64(res.selfMismatches), 1)
	on, off := median(res.rounds), median(res.walOffRounds)
	m.put("noded.wal_off_tx_per_s", float64(res.roundTxs)/off, len(res.walOffRounds))
	m.put("noded.wal_overhead_share", on/off-1, len(res.walOffRounds))
	iqr := 0.0
	if len(res.rounds) > 1 {
		iqr = iqrShare(res.rounds)
	}
	m.put("noded.round_iqr_share", iqr, len(res.rounds))
	return nil
}
