package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core/abc"
)

func TestSlotPercentileCountsSlotsNotTransactions(t *testing.T) {
	// 100 fast transactions in slots 0..9, then 20 slow ones that all rode
	// slot 10: plenty of transactions beyond p75, but one independent sample.
	var samples []txSample
	for i := 0; i < 100; i++ {
		samples = append(samples, txSample{ms: 10 + float64(i)/100, slot: i / 10})
	}
	for i := 0; i < 20; i++ {
		samples = append(samples, txSample{ms: 500, slot: 10})
	}
	v, beyond := slotPercentile(samples, 75)
	if v >= 500 || beyond != 2 { // the tail of slot 9, and slot 10
		t.Fatalf("p75 = %v with %d slots beyond, want a fast value and 2 slots", v, beyond)
	}
	if got := highestSupported(samples, []float64{50, 75, 90}); got != 0 {
		t.Fatalf("highestSupported = p%v, want none: no percentile has %d slots beyond it", got, tailSupport)
	}

	// One transaction per slot: every slot is a sample of its own.
	samples = samples[:0]
	for i := 0; i < 200; i++ {
		samples = append(samples, txSample{ms: float64(i), slot: i})
	}
	if v, beyond := slotPercentile(samples, 90); v != 179 || beyond != 20 {
		t.Fatalf("p90 = %v with %d slots beyond, want 179 and 20", v, beyond)
	}
	if got := highestSupported(samples, []float64{50, 75, 90, 95, 99}); got != 95 {
		t.Fatalf("highestSupported = p%v, want p95 (10 of 200 slots beyond)", got)
	}
}

// A slow spell that covers three of the ten stretches doubles a third of the
// latencies: the pooled p75 lands inside the spell, the stretch median does
// not move.
func TestStretchPercentileIgnoresASpell(t *testing.T) {
	const stretches = 10
	var calm, spell []txSample
	for st := 0; st < stretches; st++ {
		for i := 0; i < 100; i++ {
			v := 100 + float64(i)
			calm = append(calm, txSample{ms: v, slot: st, stretch: st})
			if st >= 4 && st < 7 {
				v *= 2
			}
			spell = append(spell, txSample{ms: v, slot: st, stretch: st})
		}
	}
	want50, want75 := stretchPercentile(calm, 50), stretchPercentile(calm, 75)
	if want50 != 149 || want75 != 174 {
		t.Fatalf("calm window: p50 %v p75 %v", want50, want75)
	}
	if got50, got75 := stretchPercentile(spell, 50), stretchPercentile(spell, 75); got50 != want50 || got75 != want75 {
		t.Fatalf("a spell over 3 of %d stretches moved p50 %v -> %v, p75 %v -> %v", stretches, want50, got50, want75, got75)
	}
	if pooled, _ := slotPercentile(spell, 75); pooled < 200 {
		t.Fatalf("pooled p75 = %v: the spell was meant to reach it", pooled)
	}
	if stretchCount(20*time.Second) != 10 || stretchCount(3*time.Second) != 1 || stretchCount(time.Second) != 1 {
		t.Fatal("windows are cut into 2 s stretches, short ones not at all")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q2, q3 = quartiles([]float64{1, 2, 4}); q1 != 1 || q2 != 2 || q3 != 4 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
	if got := iqrShare([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("iqrShare = %v, want 1", got)
	}
}

// A system that stalls makes the open-loop generator fall behind; the
// transactions sent late must still be timed from when they were due.
func TestOpenLoopLatencyCountsFromDueTime(t *testing.T) {
	const (
		rate  = 500.0 // one transaction every 2 ms
		count = 25
		stall = 40 * time.Millisecond
	)
	epoch := time.Now()
	now := func() time.Duration { return time.Since(epoch) }
	sch := loadSchedule{rate: rate, start: 0, opens: 0, ends: count * 2 * time.Millisecond}
	var sent []time.Duration
	submit := func(_ context.Context, party int, tx []byte) error {
		if seq, _ := txSeq(tx); seq == 5 {
			time.Sleep(stall) // the system under test stops admitting
		}
		sent = append(sent, now())
		return nil
	}
	lanes := newLanes(1, 0, 16)
	late := generate(context.Background(), sch, now, lanes, submit)
	if len(sent) != count || len(late) != count {
		t.Fatalf("%d sends, %d lateness samples, want %d", len(sent), len(late), count)
	}
	due := make([]time.Duration, count)
	for k := range due {
		due[k] = lanes[k%clusterN].due[k/clusterN] // transaction k carries sequence number k
		if want := time.Duration(k) * 2 * time.Millisecond; due[k] != want {
			t.Fatalf("tx %d due at %v, want %v: the schedule must not slip with the system", k, due[k], want)
		}
	}
	// Transactions 6..20 were due during the stall and sent after it: the
	// delay the stall imposed on them is in (sent - due), not hidden.
	for k := 6; k <= 10; k++ {
		if wait := sent[k] - due[k]; wait < stall-time.Duration(k-5)*2*time.Millisecond-time.Millisecond {
			t.Fatalf("tx %d sent %v after it was due, want most of the %v stall", k, wait, stall)
		}
		if late[k] < 25 {
			t.Fatalf("tx %d recorded %.1f ms late, want the stall to show", k, late[k])
		}
	}
	if late[2] > 30 {
		t.Fatalf("tx 2 recorded %.1f ms late before any stall", late[2])
	}
}

// Closed loop: one client per lane, each due again the moment its previous
// submit returned, all of them at once.
func TestClosedLoopKeepsEveryLaneBusy(t *testing.T) {
	epoch := time.Now()
	now := func() time.Duration { return time.Since(epoch) }
	sch := loadSchedule{ends: 20 * time.Millisecond}
	var mu sync.Mutex
	seen := map[uint64]int{}
	lanes := newLanes(1, 3, 16)
	late := generate(context.Background(), sch, now, lanes, func(_ context.Context, p int, tx []byte) error {
		seq, _ := txSeq(tx)
		mu.Lock()
		seen[seq] = p
		mu.Unlock()
		time.Sleep(2 * time.Millisecond)
		return nil
	})
	if late != nil {
		t.Fatalf("a closed loop has no schedule to be late on: %v", late)
	}
	total := 0
	for i, l := range lanes {
		if len(l.due) < 3 {
			t.Fatalf("lane %d sent %d transactions in 20 ms of 2 ms submits", i, len(l.due))
		}
		total += len(l.due)
		for j := 1; j < len(l.due); j++ {
			if l.due[j]-l.due[j-1] < 2*time.Millisecond {
				t.Fatalf("lane %d tx %d due %v after the one before: sent before its submit returned", i, j, l.due[j]-l.due[j-1])
			}
		}
		for j := range l.due {
			if p, ok := seen[uint64(j*clusterN+i)]; !ok || p != (3+i)%clusterN {
				t.Fatalf("lane %d tx %d: sequence number %d went to party %d (submitted: %v)", i, j, j*clusterN+i, p, ok)
			}
		}
	}
	if len(seen) != total {
		t.Fatalf("%d distinct sequence numbers for %d transactions", len(seen), total)
	}
	// Serial clients would need 4 x 2 ms per round of the lanes.
	if total < 2*clusterN*3 {
		t.Fatalf("%d transactions in 20 ms: the clients did not run side by side", total)
	}
}

func tx(seq uint64) []byte {
	b := make([]byte, 16)
	binary.BigEndian.PutUint64(b, seq)
	return b
}

func deliverAll(c *ledgerCheck, slot int, entries []abc.Entry) {
	for p := 0; p < c.n; p++ {
		c.deliver(p, slot, time.Duration(slot+1)*time.Millisecond+time.Duration(p), entries)
	}
}

func TestLedgerCheckExactlyOnce(t *testing.T) {
	c := newLedgerCheck(4)
	deliverAll(c, 0, []abc.Entry{{Origin: 0, Txs: [][]byte{tx(0), tx(1)}}, {Origin: 2, Txs: [][]byte{tx(2)}}})
	deliverAll(c, 1, []abc.Entry{{Origin: 1, Txs: [][]byte{tx(3)}}})
	if failed := c.finish([]int{4}); failed != 0 || len(c.problems) != 0 {
		t.Fatalf("clean log: %d failed, %v", failed, c.problems)
	}
	if c.slotAt[0] != time.Millisecond+3 {
		t.Fatalf("slot 0 committed at %v, want the slowest party's time", c.slotAt[0])
	}
	if c.slotEntries[0] != 2 || len(c.commits) != 4 || c.commits[2].origin != 2 {
		t.Fatalf("books: %+v", c.commits)
	}

	dup := newLedgerCheck(4)
	deliverAll(dup, 0, []abc.Entry{{Origin: 0, Txs: [][]byte{tx(0), tx(1)}}})
	deliverAll(dup, 1, []abc.Entry{{Origin: 3, Txs: [][]byte{tx(1)}}})
	if failed := dup.finish([]int{2}); failed != 1 || !strings.Contains(strings.Join(dup.problems, "\n"), "tx 1 committed 2 times") {
		t.Fatalf("duplicate: %d failed, %v", failed, dup.problems)
	}

	missing := newLedgerCheck(4)
	deliverAll(missing, 0, []abc.Entry{{Origin: 0, Txs: [][]byte{tx(0), tx(2)}}})
	if failed := missing.finish([]int{3}); failed != 1 || !strings.Contains(strings.Join(missing.problems, "\n"), "tx 1 never committed") {
		t.Fatalf("missing: %d failed, %v", failed, missing.problems)
	}

	// A slot only three of four parties delivered has not committed.
	partial := newLedgerCheck(4)
	for p := 0; p < 3; p++ {
		partial.deliver(p, 0, time.Millisecond, []abc.Entry{{Origin: 0, Txs: [][]byte{tx(0)}}})
	}
	if partial.committed() != 0 || partial.finish([]int{1}) != 1 {
		t.Fatalf("a slot missing one party counted as committed")
	}

	// Four lanes: lane l numbers its transactions l, l+4, l+8, …
	lanes := newLedgerCheck(4)
	deliverAll(lanes, 0, []abc.Entry{{Origin: 0, Txs: [][]byte{tx(0), tx(4), tx(1), tx(3), tx(7)}}})
	if failed := lanes.finish([]int{2, 1, 0, 2}); failed != 0 {
		t.Fatalf("laned log: %d failed, %v", failed, lanes.problems)
	}
	if failed := lanes.finish([]int{2, 1, 1, 1}); failed != 2 { // tx 2 missing, tx 7 never submitted
		t.Fatalf("laned log with a hole and a stranger: %d failed, %v", failed, lanes.problems)
	}
}

func TestLedgerCheckAgreementAndOrder(t *testing.T) {
	c := newLedgerCheck(4)
	for p := 0; p < 4; p++ {
		e := []abc.Entry{{Origin: 0, Txs: [][]byte{tx(0)}}}
		if p == 2 {
			e = []abc.Entry{{Origin: 1, Txs: [][]byte{tx(0)}}}
		}
		c.deliver(p, 0, time.Millisecond, e)
	}
	if len(c.problems) != 1 || !strings.Contains(c.problems[0], "diverged at party 2") {
		t.Fatalf("divergence not reported: %v", c.problems)
	}
	g := newLedgerCheck(4)
	g.deliver(0, 1, time.Millisecond, nil)
	if len(g.problems) != 1 || !strings.Contains(g.problems[0], "expected 0") {
		t.Fatalf("gap not reported: %v", g.problems)
	}
}

func TestBacklogGrowing(t *testing.T) {
	flat := make([]int, 80)
	grow := make([]int, 80)
	for i := range grow {
		flat[i] = 30
		grow[i] = 30 * i
	}
	if backlogGrowing(flat, 200) {
		t.Fatal("a steady backlog flagged saturated")
	}
	if !backlogGrowing(grow, 200) {
		t.Fatal("a growing backlog not flagged")
	}
}

// pbuf is a minimal protobuf writer for building a synthetic profile.
type pbuf struct{ bytes.Buffer }

func (p *pbuf) varint(v uint64) {
	for v >= 0x80 {
		p.WriteByte(byte(v) | 0x80)
		v >>= 7
	}
	p.WriteByte(byte(v))
}
func (p *pbuf) uint(tag int, v uint64) { p.varint(uint64(tag)<<3 | 0); p.varint(v) }
func (p *pbuf) blob(tag int, b []byte) {
	p.varint(uint64(tag)<<3 | 2)
	p.varint(uint64(len(b)))
	p.Write(b)
}

// syntheticProfile encodes stacks (function names, leaf first) with weights
// the way runtime/pprof does: one location per function, samples with packed
// location ids and [count, nanoseconds] values.
func syntheticProfile(t *testing.T, stacks [][]string, weights []int64) []byte {
	t.Helper()
	strs := []string{""}
	ids := map[string]uint64{}
	var prof pbuf
	for _, st := range stacks {
		for _, fn := range st {
			if ids[fn] != 0 {
				continue
			}
			id := uint64(len(ids) + 1)
			ids[fn] = id
			strs = append(strs, fn)
			var f, line, loc pbuf
			f.uint(1, id)
			f.uint(2, uint64(len(strs)-1))
			prof.blob(5, f.Bytes())
			line.uint(1, id)
			line.uint(2, 42)
			loc.uint(1, id)
			loc.uint(3, 0x1000+id)
			loc.blob(4, line.Bytes())
			prof.blob(4, loc.Bytes())
		}
	}
	for i, st := range stacks {
		var locs, vals, s pbuf
		for _, fn := range st {
			locs.varint(ids[fn])
		}
		vals.varint(1)
		vals.varint(uint64(weights[i]))
		s.blob(1, locs.Bytes())
		s.blob(2, vals.Bytes())
		prof.blob(2, s.Bytes())
	}
	for _, str := range strs {
		prof.blob(6, []byte(str))
	}
	var zipped bytes.Buffer
	zw := gzip.NewWriter(&zipped)
	if _, err := zw.Write(prof.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return zipped.Bytes()
}

func TestProfileAttribution(t *testing.T) {
	dispatch := "repro/internal/livenet.(*Node).dispatch"
	stacks := [][]string{
		// stdlib leaf under group under pedersen under avss: self → group.
		{"crypto/internal/fips140/nistec.(*P256Point).ScalarMult", "repro/internal/crypto/group.Point.Mul",
			"repro/internal/crypto/pedersen.Commitment.VerifyShare", "repro/internal/core/avss.(*AVSS).Handle", dispatch},
		// allocation inside the codec: charged to wire, not to the runtime.
		{"runtime.mallocgc", "repro/internal/wire.(*Writer).Blob", "repro/internal/core/rbc.(*AVID).Handle", dispatch},
		// a socket write: syscall, whoever asked for it.
		{"internal/runtime/syscall.Syscall6", "syscall.write", "net.(*conn).Write", "repro/internal/livenet.(*Mesh).Flush"},
		// the collector on its own.
		{"runtime.scanobject", "runtime.gcBgMarkWorker"},
		// the benchmark's own code.
		{"main.(*ledgerCheck).deliver", "main.(*liveLedger).collect"},
	}
	weights := []int64{50, 20, 10, 15, 5}
	samples, err := parseProfile(syntheticProfile(t, stacks, weights))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != len(stacks) || samples[0].weight != 50 || samples[0].funcs[1] != stacks[0][1] {
		t.Fatalf("parsed %+v", samples)
	}
	a := attribute(samples)
	wantSelf := map[string]float64{"group": 0.5, "wire": 0.2, "syscall": 0.1, "runtime": 0.15, "other": 0.05}
	sum := 0.0
	for k, v := range a.self {
		sum += v
		if math.Abs(v-wantSelf[k]) > 1e-9 {
			t.Errorf("self[%s] = %v, want %v", k, v, wantSelf[k])
		}
	}
	if len(a.self) != len(wantSelf) || math.Abs(sum-1) > 1e-9 {
		t.Errorf("self shares %v sum to %v", a.self, sum)
	}
	wantCum := map[string]float64{"group": 0.5, "pedersen": 0.5, "avss": 0.5, "wire": 0.2, "rbc": 0.2, "livenet": 0.8}
	for k, want := range wantCum {
		if math.Abs(a.cum[k]-want) > 1e-9 {
			t.Errorf("cum[%s] = %v, want %v", k, a.cum[k], want)
		}
	}
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Error("garbage parsed as a profile")
	}
}

func TestFuncPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/core/avss.(*AVSS).Handle":        "avss",
		"repro/internal/crypto/rs.(*Codec).Encode.func1": "rs",
		"runtime.mallocgc":                               "",
		"main.main":                                      "",
		"crypto/sha256.block":                            "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// BENCHMARK.json and the program must name the same workloads and metrics:
// newRunReport refuses to print a run that lacks a defined metric or carries
// an undefined one, so equal definitions mean equal output.
func TestManifestMatchesDefinitions(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if strings.Join(doc.Command, " ") != "bash bench/run.sh" || len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("command %v, paths %v", doc.Command, doc.Paths)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the program defaults to %d", doc.RunSeconds, defaultSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the manifest, %d in the program", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: manifest %+v, program %q", i, doc.Workloads[i], w.name)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in the manifest, %d in the program", len(doc.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		if got := doc.EndToEnd[i]; got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound != d.bound {
			t.Errorf("end-to-end %d: manifest %+v, program %+v", i, got, d)
		}
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in the manifest, %d in the program", len(doc.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, d := range perLayer {
		if got := doc.PerLayer[i]; got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per-layer %d: manifest %+v, program %+v", i, got, d)
		}
		if seen[d.name] {
			t.Errorf("%s defined twice", d.name)
		}
		seen[d.name] = true
	}
}

func TestRunReportInsistsOnEveryMetric(t *testing.T) {
	w := &workloads[0]
	full := metricSet{}
	for _, d := range endToEnd {
		full.put(d.name, 1.5, 3)
	}
	r, err := newRunReport(w, endToEnd, full)
	if err != nil || len(r.Metrics) != len(endToEnd) || r.Metrics["setup_s"].Unit != "s" {
		t.Fatalf("complete set refused: %v", err)
	}
	r.close(10, 0, nil)
	if !r.Correct {
		t.Fatal("a clean run is not correct")
	}
	r.close(10, 1, nil)
	if r.Correct || r.Share != 0.1 {
		t.Fatalf("a failed transaction left correct=%v share=%v", r.Correct, r.Share)
	}

	short := metricSet{}
	short.put("setup_s", 1, 1)
	if _, err := newRunReport(w, endToEnd, short); err == nil {
		t.Fatal("a missing metric went unnoticed")
	}
	full.put("invented", 1, 1)
	if _, err := newRunReport(w, endToEnd, full); err == nil {
		t.Fatal("an undefined metric went unnoticed")
	}
	delete(full, "invented")
	full.put("tx_per_s", math.NaN(), 0)
	if _, err := newRunReport(w, endToEnd, full); err == nil {
		t.Fatal("a metric without a value went unnoticed")
	}
}

func TestCompareSets(t *testing.T) {
	mk := func(set int, p50 float64) *runReport {
		m := metricSet{}
		for _, d := range endToEnd {
			m.put(d.name, 100, 1)
		}
		m.put("commit_p50_ms", p50, 1)
		r, err := newRunReport(&workloads[0], endToEnd, m)
		if err != nil {
			t.Fatal(err)
		}
		r.Set = set
		return r
	}
	var out bytes.Buffer
	if !compareSets(&out, []*runReport{mk(0, 100), mk(1, 110)}, 2) {
		t.Fatalf("10%% apart flagged against a 25%% bound:\n%s", out.String())
	}
	if compareSets(&out, []*runReport{mk(0, 100), mk(1, 140)}, 2) {
		t.Fatal("40% apart not flagged")
	}
}
