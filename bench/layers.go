package main

// Layer measurements taken from outside the packages: leaf timings of their
// exported functions at the shapes the n=4, f=1 ledger uses, and protocol
// spans — one instance at a time on a warmed in-process TCP cluster.

import (
	"context"
	"crypto/rand"
	"fmt"
	mrand "math/rand"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/core/rbc"
	"repro/internal/crypto/field"
	"repro/internal/crypto/group"
	"repro/internal/crypto/merkle"
	"repro/internal/crypto/pedersen"
	"repro/internal/crypto/poly"
	"repro/internal/crypto/rs"
	"repro/internal/crypto/sig"
	"repro/internal/crypto/vcache"
	"repro/internal/crypto/vrf"
	"repro/internal/exp"
	"repro/internal/harness"
	"repro/internal/livenet"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/wal"
	"repro/internal/wire"
)

// measured is one metric value with the number of samples behind it. raw is
// the value before it was taken to the reference speed (see speed.go); the
// two are equal for metrics that are not corrected.
type measured struct {
	value   float64
	raw     float64
	samples int
}

type metricSet map[string]measured

func (m metricSet) put(name string, v float64, samples int) {
	m[name] = measured{value: v, raw: v, samples: samples}
}

func (m metricSet) putCorrected(name string, v, raw float64, samples int) {
	m[name] = measured{value: v, raw: raw, samples: samples}
}

// sink keeps results alive so the compiler cannot drop the timed calls.
var sink any

// timeCalls times fn call by call and returns the median.
func timeCalls(calls int, fn func()) time.Duration {
	ds := make([]time.Duration, calls)
	for i := range ds {
		t0 := time.Now()
		fn()
		ds[i] = time.Since(t0)
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[calls/2]
}

// timeBatches is timeCalls for calls too short for the clock: each sample is
// a batch of per calls, reported per call.
func timeBatches(batches, per int, fn func()) time.Duration {
	return timeCalls(batches, func() {
		for i := 0; i < per; i++ {
			fn()
		}
	}) / time.Duration(per)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

const (
	bulkPayload = 256 << 10 // the lan-bulk batch size
	smallBatch  = 1 << 10   // the lan-small batch size
)

// leafTimings measures single calls. calls is the sample count for
// microsecond-scale functions; millisecond-scale ones take calls/4.
func leafTimings(m metricSet, calls int, walDir string) error {
	rng := mrand.New(mrand.NewSource(1))
	k, n := clusterF+1, clusterN

	// Pedersen commitments over degree-f polynomials, as AVSS deals them.
	a, err := poly.Random(rand.Reader, clusterF)
	if err != nil {
		return err
	}
	b, err := poly.Random(rand.Reader, clusterF)
	if err != nil {
		return err
	}
	com, err := pedersen.Commit(a, b)
	if err != nil {
		return err
	}
	sa, sb := a.Eval(poly.X(2)), b.Eval(poly.X(2))
	if !com.VerifyShare(2, sa, sb) {
		return fmt.Errorf("pedersen: honest share rejected")
	}
	m.put("pedersen.verify_share_us", us(timeCalls(calls, func() { sink = com.VerifyShare(2, sa, sb) })), calls)
	m.put("pedersen.commit_us", us(timeCalls(calls, func() { sink, _ = pedersen.Commit(a, b) })), calls)

	sk, err := sig.GenerateKey(rand.Reader)
	if err != nil {
		return err
	}
	msg := make([]byte, 64)
	rng.Read(msg)
	sg := sk.Sign(msg)
	if !sig.Verify(sk.PK, msg, sg) {
		return fmt.Errorf("sig: honest signature rejected")
	}
	m.put("sig.verify_us", us(timeCalls(calls, func() { sink = sig.Verify(sk.PK, msg, sg) })), calls)
	m.put("sig.sign_us", us(timeCalls(calls, func() { sink = sk.Sign(msg) })), calls)

	scalar := field.MustRandom(rand.Reader)
	pt := group.BaseMul(field.MustRandom(rand.Reader))
	enc := pt.Bytes()
	m.put("group.mul_us", us(timeCalls(calls, func() { sink = pt.Mul(scalar) })), calls)
	m.put("group.from_bytes_us", us(timeCalls(calls, func() { sink, _ = group.FromBytes(enc) })), calls)

	vk, err := vrf.GenerateKey(rand.Reader)
	if err != nil {
		return err
	}
	out, pf := vk.Eval(msg)
	if !vrf.Verify(vk.PK, msg, out, pf) {
		return fmt.Errorf("vrf: honest proof rejected")
	}
	m.put("vrf.verify_us", us(timeCalls(calls, func() { sink = vrf.Verify(vk.PK, msg, out, pf) })), calls)
	m.put("vrf.eval_us", us(timeCalls(calls, func() { sink, _ = vk.Eval(msg) })), calls)
	cache := vcache.New()
	cache.Verify(0, vk.PK, msg, out, pf)
	m.put("vcache.hit_us", us(timeBatches(calls, 16, func() { sink = cache.Verify(0, vk.PK, msg, out, pf) })), calls)

	// The AVID data plane at the lan-bulk batch size: (f+1, n) code, one
	// Merkle tree over the n chunks.
	codec, err := rs.Get(k, n)
	if err != nil {
		return err
	}
	payload := make([]byte, bulkPayload)
	rng.Read(payload)
	chunks, err := codec.Encode(payload)
	if err != nil {
		return err
	}
	systematic, parity := map[int][]byte{}, map[int][]byte{}
	for i := 0; i < k; i++ {
		systematic[i], parity[n-1-i] = chunks[i], chunks[n-1-i]
	}
	slow := calls / 4
	m.put("rs.encode_256k_ms", ms(timeCalls(slow, func() { sink, _ = codec.Encode(payload) })), slow)
	m.put("rs.decode_parity_256k_ms", ms(timeCalls(slow, func() { sink, _ = codec.Decode(parity) })), slow)
	m.put("rs.decode_systematic_256k_us", us(timeCalls(calls, func() { sink, _ = codec.Decode(systematic) })), calls)
	tree, err := merkle.Build(chunks)
	if err != nil {
		return err
	}
	proof, err := tree.Prove(1)
	if err != nil {
		return err
	}
	if !merkle.Verify(tree.Root(), chunks[1], proof) {
		return fmt.Errorf("merkle: honest proof rejected")
	}
	m.put("merkle.build_256k_us", us(timeCalls(calls, func() { sink, _ = merkle.Build(chunks) })), calls)
	small, err := codec.Encode(payload[:smallBatch])
	if err != nil {
		return err
	}
	stree, err := merkle.Build(small)
	if err != nil {
		return err
	}
	sproof, err := stree.Prove(1)
	if err != nil {
		return err
	}
	m.put("merkle.verify_us", us(timeBatches(calls, 16, func() { sink = merkle.Verify(stree.Root(), small[1], sproof) })), calls)

	// One protocol message through the codec: tag, round, root, chunk.
	root := stree.Root()
	roundtrip := func() {
		var w wire.Writer
		w.Byte(11)
		w.Int(7)
		w.Bytes32(root[:])
		w.Blob(small[1])
		r := wire.NewReader(w.Bytes())
		r.Byte()
		r.Int()
		r.Bytes32()
		sink = r.Blob()
		sink = r.Done()
	}
	m.put("wire.roundtrip_ns", float64(timeBatches(calls, 64, roundtrip)), calls)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		roundtrip()
	}
	runtime.ReadMemStats(&after)
	m.put("wire.allocs_per_msg", float64(after.Mallocs-before.Mallocs)/float64(calls), calls)

	// The journal: a frame-sized record appended, then made durable. The
	// sync is whatever this runner's filesystem makes of fsync.
	dir, err := os.MkdirTemp(walDir, "wal-leaf-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	log, err := wal.Open(dir)
	if err != nil {
		return err
	}
	record := payload[:256]
	var appendErr, syncErr error
	appends := make([]time.Duration, calls)
	syncs := make([]time.Duration, calls)
	for i := range appends {
		t0 := time.Now()
		if err := log.Append(1, record); err != nil {
			appendErr = err
		}
		t1 := time.Now()
		if err := log.Sync(); err != nil {
			syncErr = err
		}
		appends[i], syncs[i] = t1.Sub(t0), time.Since(t1)
	}
	if err := log.Close(); err != nil {
		return err
	}
	if appendErr != nil || syncErr != nil {
		return fmt.Errorf("wal: append %v, sync %v", appendErr, syncErr)
	}
	sort.Slice(appends, func(i, j int) bool { return appends[i] < appends[j] })
	sort.Slice(syncs, func(i, j int) bool { return syncs[i] < syncs[j] })
	m.put("wal.append_us", us(appends[calls/2]), calls)
	m.put("wal.sync_us", us(syncs[calls/2]), calls)

	// Dispatch: a message bounced between two parties whose handlers do
	// nothing else, per hop.
	for _, tr := range []struct {
		name      string
		transport livenet.Transport
		scale     float64
	}{
		{"livenet.dispatch_us", livenet.Channels, 0.5}, // per hop
		{"livenet.tcp_rtt_us", livenet.TCP, 1},         // per round trip
	} {
		d, err := livePingPong(tr.transport, calls)
		if err != nil {
			return err
		}
		m.put(tr.name, us(d)*tr.scale, calls)
	}
	m.put("sim.dispatch_ns", float64(simPingPong(calls*16))/float64(calls*16), calls*16)
	return nil
}

// livePingPong bounces a message between parties 0 and 1 of a live cluster
// and returns the mean round trip.
func livePingPong(tr livenet.Transport, trips int) (time.Duration, error) {
	c, err := harness.NewLiveCluster(clusterN, clusterF, 1, harness.LiveOptions{Transport: tr})
	if err != nil {
		return 0, err
	}
	defer c.Close()
	body := make([]byte, 64)
	done := make(chan struct{})
	left := trips
	rt0, rt1 := c.Runtime(0), c.Runtime(1)
	c.Launch(1, func() {
		rt1.Register("pp", proto.HandlerFunc(func(from int, b []byte) { rt1.Send("pp", from, b) }))
	})
	c.Launch(0, func() {
		rt0.Register("pp", proto.HandlerFunc(func(int, []byte) {
			if left--; left == 0 {
				close(done)
				return
			}
			rt0.Send("pp", 1, body)
		}))
	})
	t0 := time.Now()
	c.Launch(0, func() { rt0.Send("pp", 1, body) })
	select {
	case <-done:
	case <-time.After(setupTimeout):
		return 0, fmt.Errorf("ping-pong stalled with %d trips left", left)
	}
	return time.Since(t0) / time.Duration(trips), nil
}

// simPingPong runs the same bounce on the simulator and returns the total
// time for the given number of deliveries.
func simPingPong(deliveries int) time.Duration {
	nw := sim.New(sim.Config{N: clusterN, F: clusterF, Seed: 1})
	body := make([]byte, 64)
	for i := 0; i < 2; i++ {
		nd := nw.Node(i)
		nd.Register("pp", proto.HandlerFunc(func(from int, b []byte) { nd.Send("pp", from, b) }))
	}
	nw.Node(0).Send("pp", 1, body)
	t0 := time.Now()
	for i := 0; i < deliveries; i++ {
		nw.Step()
	}
	return time.Since(t0)
}

// protocolSpans runs each protocol one instance at a time on a warmed
// in-process TCP cluster and reports the median launch → last-party-output
// time over reps instances.
func protocolSpans(m metricSet, seed int64, reps int) error {
	c, err := harness.NewLiveCluster(clusterN, clusterF, seed, harness.LiveOptions{
		Transport: livenet.TCP, Timeout: setupTimeout,
	})
	if err != nil {
		return err
	}
	defer c.Close()
	ctx := context.Background()
	genesis := []byte("bench")

	type waiter interface{ Wait(context.Context) error }
	span := func(name string, reps int, launch func(tag string) (waiter, func() error)) error {
		ds := make([]float64, 0, reps)
		for r := -1; r < reps; r++ { // r = -1 warms the caches and links
			tag := fmt.Sprintf("%s/%d", name, r)
			t0 := time.Now()
			w, verify := launch(tag)
			if err := w.Wait(ctx); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			d := time.Since(t0)
			if err := verify(); err != nil {
				return fmt.Errorf("%s: %w", tag, err)
			}
			if r >= 0 {
				ds = append(ds, ms(d))
			}
		}
		m.put(name, median(ds), reps)
		return nil
	}
	ok := func() error { return nil }
	disagree := fmt.Errorf("parties disagree")

	for _, av := range []struct {
		name string
		size int
	}{{"rbc.avid_1k_ms", smallBatch}, {"rbc.avid_256k_ms", bulkPayload}} {
		value := make([]byte, av.size)
		mrand.New(mrand.NewSource(seed)).Read(value)
		if err := span(av.name, reps, func(tag string) (waiter, func() error) {
			return launchAVID(c, tag, value), ok
		}); err != nil {
			return err
		}
	}
	if err := span("coin.flip_ms", reps, func(tag string) (waiter, func() error) {
		return exp.LaunchPaperCoin(c, tag, genesis), ok // a weak coin: completion only
	}); err != nil {
		return err
	}
	if err := span("aba.decide_ms", reps, func(tag string) (waiter, func() error) {
		ai := exp.LaunchPaperABA(c, tag, []byte{1, 1, 1, 1}, genesis)
		return ai, func() error {
			if o := ai.Outcome(); !o.Agreed || o.Bit != 1 {
				return disagree
			}
			return nil
		}
	}); err != nil {
		return err
	}
	var rounds []float64
	if err := span("aba.split_decide_ms", reps, func(tag string) (waiter, func() error) {
		ai := exp.LaunchPaperABA(c, tag, []byte{0, 1, 0, 1}, genesis)
		return ai, func() error {
			o := ai.Outcome()
			if !o.Agreed {
				return disagree
			}
			rounds = append(rounds, float64(o.MaxRound))
			return nil
		}
	}); err != nil {
		return err
	}
	m.put("aba.split_rounds", median(rounds[1:]), reps)
	if err := span("election.elect_ms", reps, func(tag string) (waiter, func() error) {
		ei := exp.LaunchPaperElection(c, tag, genesis)
		return ei, func() error {
			if !ei.Outcome().Agreed {
				return disagree
			}
			return nil
		}
	}); err != nil {
		return err
	}
	proposals := [][]byte{[]byte("ok:0"), []byte("ok:1"), []byte("ok:2"), []byte("ok:3")}
	if err := span("vba.agree_ms", reps, func(tag string) (waiter, func() error) {
		vi := exp.LaunchPaperVBA(c, tag, proposals, func([]byte) bool { return true }, genesis)
		return vi, func() error {
			if !vi.Outcome().Agreed {
				return disagree
			}
			return nil
		}
	}); err != nil {
		return err
	}
	// The pairing group under ADKG is simulated: this span is a cost model,
	// not a hardware number.
	return span("adkg.generate_ms", max(reps/4, 3), func(tag string) (waiter, func() error) {
		di := exp.LaunchPaperADKG(c, tag, genesis)
		return di, func() error {
			if !di.Outcome().KeysAgree {
				return disagree
			}
			return nil
		}
	})
}

// avidWait is one AVID broadcast from party 0, complete when every party
// delivered the value.
type avidWait struct {
	c     *harness.Cluster
	count int
}

func launchAVID(c *harness.Cluster, tag string, value []byte) *avidWait {
	w := &avidWait{c: c}
	insts := make([]*rbc.AVID, c.N)
	for i := 0; i < c.N; i++ {
		c.Launch(i, func() {
			insts[i] = rbc.NewAVID(c.Runtime(i), tag, 0, func([]byte) {
				c.Update(func() { w.count++ })
			})
		})
	}
	c.Launch(0, func() { insts[0].Start(value) })
	return w
}

func (w *avidWait) Wait(ctx context.Context) error {
	return w.c.Await(ctx, func() bool { return w.count == w.c.N })
}
