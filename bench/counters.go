package main

import (
	"runtime"
	"syscall"
	"time"

	"repro/internal/crypto/rs"
)

// windowCounters are the cumulative counters the packages already export,
// read at both edges of a measurement window.
type windowCounters struct {
	cpuSeconds float64 // this process, user + system

	msgs, wireBytes      int64 // livenet tally
	frames, syscalls     int64 // TCP mesh
	rejected             int64
	vLookups, vHits      int64 // VRF verdict cache
	vCold                int64
	rsOps                int64
	treeHits, treeBuilds int64
	heapBytes            int64 // live heap after a forced GC (traced runs only)
}

func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 {
		return (time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond).Seconds()
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// snapshotCounters reads every counter. The forced collection that makes
// HeapAlloc mean "live heap" stalls the ledger, so only traced runs pay it.
func snapshotCounters(l *liveLedger, traced bool) windowCounters {
	tally := l.hc.TotalTally()
	tcp := l.hc.TCPStats()
	vs := l.hc.VerifyStats()
	rss := rs.Snapshot()
	c := windowCounters{
		cpuSeconds: processCPU(),
		msgs:       tally.Msgs,
		wireBytes:  tally.Bytes,
		frames:     tcp.Frames,
		syscalls:   tcp.Syscalls,
		rejected:   l.hc.Rejected(),
		vLookups:   vs.Lookups,
		vHits:      vs.Hits,
		vCold:      vs.Verifies,
		rsOps:      rss.Ops(),
		treeHits:   rss.TreeHits,
		treeBuilds: rss.TreeBuilds,
	}
	if traced {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		c.heapBytes = int64(m.HeapAlloc)
	}
	return c
}

func (c windowCounters) minus(o windowCounters) windowCounters { return c.combine(o, -1) }
func (c windowCounters) plus(o windowCounters) windowCounters  { return c.combine(o, 1) }

func (c windowCounters) combine(o windowCounters, sign int64) windowCounters {
	return windowCounters{
		cpuSeconds: c.cpuSeconds + float64(sign)*o.cpuSeconds,
		msgs:       c.msgs + sign*o.msgs,
		wireBytes:  c.wireBytes + sign*o.wireBytes,
		frames:     c.frames + sign*o.frames,
		syscalls:   c.syscalls + sign*o.syscalls,
		rejected:   c.rejected + sign*o.rejected,
		vLookups:   c.vLookups + sign*o.vLookups,
		vHits:      c.vHits + sign*o.vHits,
		vCold:      c.vCold + sign*o.vCold,
		rsOps:      c.rsOps + sign*o.rsOps,
		treeHits:   c.treeHits + sign*o.treeHits,
		treeBuilds: c.treeBuilds + sign*o.treeBuilds,
		heapBytes:  c.heapBytes + sign*o.heapBytes,
	}
}
