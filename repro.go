// Package repro is a from-scratch Go reproduction of "Efficient
// Asynchronous Byzantine Agreement without Private Setups" (Gao, Lu, Lu,
// Tang, Xu, Zhang — ICDCS 2022): the full protocol stack — AVSS, weak
// core-set selection, reliable broadcasted seeding, reasonably fair common
// coin, binary agreement, leader election with perfect agreement, validated
// Byzantine agreement — plus the two §7.3 applications (asynchronous DKG
// and a DKG-free random beacon), all assuming only a bulletin PKI.
//
// # Sessions: one cluster, many protocol instances
//
// The paper's protocols are designed to be composed and repeated — a beacon
// runs one Election per epoch, ADKG shares n secrets at once, a replicated
// log decides one value per slot. The API therefore centers on a long-lived
// Cluster: key setup (the bulletin PKI) happens once in NewCluster, and the
// cluster then serves any number of protocol invocations, each identified
// by a caller-chosen instance tag and returned as a handle whose Wait
// blocks for the result:
//
//	cluster, _ := repro.NewCluster(16, repro.WithSeed(1),
//	    repro.WithGenesisNonce([]byte("session")))
//	defer cluster.Close()
//	var handles []*repro.VBAHandle
//	for slot := 0; slot < 8; slot++ {
//	    h, _ := cluster.Agree(fmt.Sprintf("slot%d", slot), proposals, valid)
//	    handles = append(handles, h) // 8 VBAs run concurrently
//	}
//	for _, h := range handles {
//	    res, _ := h.Wait(ctx) // res.Stats is scoped to this instance
//	}
//
// Concurrent instances share one network: on the default simulated runtime
// they interleave under the (optionally adversarial) message scheduler, and
// on the live runtimes (WithRuntime) they run truly in parallel across
// per-party dispatcher goroutines — over in-process queues or real TCP
// loopback connections — with the same decisions for the same seed wherever
// the protocol pins the outcome.
//
// Every result carries the paper's cost metrics of §3 (messages,
// communicated bytes, asynchronous rounds), scoped to that instance, so
// amortization is visible: the setup cost is paid once per cluster, not
// once per decision.
//
//	res, err := repro.ElectLeader(repro.Config{N: 4, Seed: 1})
//	// res.Leader is the same at every honest party (Theorem 5);
//	// res.Stats.Bytes documents the expected O(λn³) communication.
//
// The one-shot functions (FlipCoin, DecideBit, ElectLeader, Agree,
// GenerateKey, RunBeacon) remain as thin wrappers that build a fresh
// single-use cluster per call. Deeper control (custom schedulers, Byzantine
// behaviours, sub-protocol access, Table 1 baselines) lives in the internal
// packages; see README.md for the system inventory, the experiment registry
// and the paper-vs-measured record (go run ./cmd/benchtable).
package repro

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/exp"
	"repro/internal/harness"
	"repro/internal/livenet"
)

// RuntimeKind selects the network a Cluster runs on.
type RuntimeKind int

// Available runtimes.
const (
	// RuntimeSim is the deterministic single-threaded network simulator:
	// adversarial scheduling, seed-exact replay, full cost accounting.
	RuntimeSim RuntimeKind = iota
	// RuntimeLiveChannels runs each party on its own dispatcher goroutine
	// with in-process delivery (optionally jittered) — concurrent execution
	// without sockets.
	RuntimeLiveChannels
	// RuntimeLiveTCP is RuntimeLiveChannels over real TCP loopback
	// connections (full mesh, framed messages).
	RuntimeLiveTCP
)

func (k RuntimeKind) String() string {
	switch k {
	case RuntimeSim:
		return "sim"
	case RuntimeLiveChannels:
		return "livenet-channels"
	case RuntimeLiveTCP:
		return "livenet-tcp"
	default:
		return fmt.Sprintf("RuntimeKind(%d)", int(k))
	}
}

// Option tunes NewCluster.
type Option func(*clusterOptions)

type clusterOptions struct {
	runtime RuntimeKind
	seed    int64
	f       int
	genesis []byte
	crashed int
	sched   string
	jitter  time.Duration
	budget  int64
	timeout time.Duration
}

// WithRuntime selects the runtime (default RuntimeSim).
func WithRuntime(k RuntimeKind) Option { return func(o *clusterOptions) { o.runtime = k } }

// WithSeed sets the seed driving all randomness — key generation, protocol
// randomness, and (on the simulator) message scheduling. Equal seeds replay
// identical simulated executions and identical key material everywhere.
func WithSeed(seed int64) Option { return func(o *clusterOptions) { o.seed = seed } }

// WithMaxFaults overrides the corruption bound f (default ⌊(n−1)/3⌋).
func WithMaxFaults(f int) Option { return func(o *clusterOptions) { o.f = f } }

// WithGenesisNonce switches every coin to the paper's adaptively secure
// variant under a one-time common random string (Table 1's "PKI, 1-time
// rnd" row): Seeding is skipped and all VRFs run on this nonce.
func WithGenesisNonce(nonce []byte) Option { return func(o *clusterOptions) { o.genesis = nonce } }

// WithCrashed makes the highest-indexed k parties crash-faulty (k ≤ f).
func WithCrashed(k int) Option { return func(o *clusterOptions) { o.crashed = k } }

// WithScheduler selects the simulator's message adversary by name: random,
// fifo, lifo, delay, partition, or targeted:<inst-prefix>. Simulator only.
func WithScheduler(name string) Option { return func(o *clusterOptions) { o.sched = name } }

// WithJitter adds random delivery delay on RuntimeLiveChannels, creating
// real asynchrony without sockets.
func WithJitter(d time.Duration) Option { return func(o *clusterOptions) { o.jitter = d } }

// WithStepBudget caps simulator deliveries per Wait (default: a generous
// internal budget). Exhaustion surfaces as a structured stall error naming
// the parties that produced no output.
func WithStepBudget(steps int64) Option { return func(o *clusterOptions) { o.budget = steps } }

// WithWaitTimeout caps one Wait on the live runtimes (default 2m).
func WithWaitTimeout(d time.Duration) Option { return func(o *clusterOptions) { o.timeout = d } }

// Cluster is a long-lived keyed network of n parties serving concurrent
// protocol instances. Key setup happens once in NewCluster; every
// subsequent invocation reuses it. Methods are safe for concurrent use;
// handles may be awaited from separate goroutines.
type Cluster struct {
	n, f    int
	kind    RuntimeKind
	genesis []byte
	hc      *harness.Cluster

	mu     sync.Mutex
	tags   map[string]bool
	closed bool
}

// NewCluster builds an n-party cluster (n ≥ 4) and performs the bulletin
// PKI setup once. Callers own the cluster and should Close it when done
// (mandatory on the live runtimes, where it stops goroutines and sockets).
func NewCluster(n int, opts ...Option) (*Cluster, error) {
	o := clusterOptions{}
	for _, opt := range opts {
		opt(&o)
	}
	if n < 4 {
		return nil, fmt.Errorf("repro: N=%d too small (need ≥ 4)", n)
	}
	f := o.f
	if f <= 0 {
		f = (n - 1) / 3
	}
	if o.crashed > f {
		return nil, fmt.Errorf("repro: %d crashed parties exceeds f=%d", o.crashed, f)
	}
	crashed := harness.Crashed(harness.CrashLast, n, o.crashed, o.seed)
	var hc *harness.Cluster
	var err error
	switch o.runtime {
	case RuntimeSim:
		var sched exp.SchedFactory
		if o.sched != "" {
			if sched, err = exp.NamedSched(o.sched); err != nil {
				return nil, err
			}
		}
		hopts := harness.Options{Byzantine: crashed, Crash: true, Budget: o.budget}
		if sched != nil {
			hopts.Scheduler = sched(n, o.seed)
		}
		hc, err = harness.NewCluster(n, f, o.seed, hopts)
	case RuntimeLiveChannels, RuntimeLiveTCP:
		if o.sched != "" {
			return nil, fmt.Errorf("repro: WithScheduler(%q) requires the simulator runtime", o.sched)
		}
		tr := livenet.Channels
		if o.runtime == RuntimeLiveTCP {
			tr = livenet.TCP
		}
		hc, err = harness.NewLiveCluster(n, f, o.seed, harness.LiveOptions{
			Transport: tr, Jitter: o.jitter, Timeout: o.timeout, Crashed: crashed,
		})
	default:
		return nil, fmt.Errorf("repro: unknown runtime %d", int(o.runtime))
	}
	if err != nil {
		return nil, err
	}
	return &Cluster{
		n: n, f: f, kind: o.runtime, genesis: o.genesis, hc: hc,
		tags: make(map[string]bool),
	}, nil
}

// N returns the party count.
func (c *Cluster) N() int { return c.n }

// F returns the corruption bound.
func (c *Cluster) F() int { return c.f }

// Runtime reports which runtime the cluster executes on.
func (c *Cluster) Runtime() RuntimeKind { return c.kind }

// Close releases the cluster (live-runtime goroutines and sockets; a no-op
// network-wise on the simulator). Instances must not be launched after.
func (c *Cluster) Close() {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	c.hc.Close()
}

// Stats reports the cluster's cumulative traffic across every instance —
// per-instance results carry their own scoped Stats, and the scoped values
// sum back to this total.
func (c *Cluster) Stats() Stats {
	s := stats(exp.ClusterStats(c.hc))
	// The public mirror is field for field livenet.TCPStats; this
	// conversion stops compiling the moment either side drifts.
	s.Transport = TransportStats(c.hc.TCPStats())
	return s
}

// InstanceStats reports the cumulative traffic scoped to one instance tag
// (the tag's own path plus every sub-protocol under it). Unlike the Stats
// carried by a handle result — a snapshot taken when Wait returned — this
// reads the live counters, which keep growing while post-decision protocol
// tails (e.g. the ABA FINISH gadget) drain on the live runtimes.
func (c *Cluster) InstanceStats(tag string) Stats {
	t := c.hc.InstanceTally(tag)
	return Stats{Messages: t.Msgs, Bytes: t.Bytes}
}

// claim reserves an instance tag. Tags name instances on the shared
// network, so they must be unique per cluster and must not contain '/'
// (sub-protocols append /-separated suffixes).
func (c *Cluster) claim(tag string) error {
	if tag == "" {
		return errors.New("repro: empty instance tag")
	}
	for i := 0; i < len(tag); i++ {
		if tag[i] == '/' {
			return fmt.Errorf("repro: instance tag %q must not contain '/'", tag)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return errors.New("repro: cluster is closed")
	}
	if c.tags[tag] {
		return fmt.Errorf("repro: instance tag %q already used on this cluster", tag)
	}
	c.tags[tag] = true
	return nil
}

// Stats reports a run's cost in the paper's three metrics (§3), plus the
// crypto-work counter of the memoizing VRF verifier.
type Stats struct {
	Messages int64 // messages sent by honest parties
	Bytes    int64 // wire-encoded bytes of those messages
	Rounds   int   // asynchronous rounds (causal depth) to the last output
	// Verifies counts cold VRF verifications — the P-256 scalar
	// multiplications the cluster's verifier cache could not dedup away.
	// The cache is shared by all instances of a cluster, so like the
	// delivery count this is cluster-cumulative: an instance result holds
	// a completion-time snapshot, not an instance-scoped delta.
	Verifies int64
	// ScriptVerifies counts cold PVSS script verifications — the
	// multi-pairing work the cluster's script cache could not dedup away.
	// Cluster-cumulative, like Verifies.
	ScriptVerifies int64
	// RSOps counts Reed–Solomon codec operations (systematic encodes plus
	// cached-basis decodes) performed by the cluster's AVID broadcasts.
	// Cluster-cumulative, like Verifies.
	RSOps int64
	// Rejected counts messages honest parties dropped at receipt as
	// malformed or cryptographically invalid. Zero in honest runs; nonzero
	// when a party is lying on the wire (the Byzantine behaviors of
	// internal/adversary). Cluster-cumulative, like Verifies.
	Rejected int64
	// Equivocations counts messages carrying proof that a sender lied —
	// two conflicting signed votes from the same party in the same round,
	// a pinned-value conflict, a contradictory FINISH. Cluster-cumulative.
	Equivocations int64
	// Transport carries the live TCP transport's framing, reconnect, and
	// WAN-emulation counters. All zero on the simulator and channels
	// runtimes; cluster-cumulative on TCP.
	Transport TransportStats
}

// TransportStats mirrors the TCP mesh counters (livenet.TCPStats) into the
// public stats surface: wire framing, reconnect/resync behaviour, handshake
// authentication, and userspace WAN emulation.
type TransportStats struct {
	Frames   int64 // data frames accepted for sending (excludes resends)
	Syscalls int64 // data-path socket writes (coalesced flushes)
	Dropped  int64 // frames dropped to outbox overflow

	Resends       int64 // frames rewritten during reconnect resyncs
	Redials       int64 // connections re-established after the first
	BackoffResets int64 // exponential backoff returns to minimum
	AuthRejects   int64 // inbound handshakes rejected
	Dups          int64 // duplicate inbound frames dropped by seq dedup

	WANDelays int64 // inbound frames held by WAN emulation
	WANLosses int64 // loss→retransmit latency events injected
}

// stats is the one conversion from the experiment layer's counters, which
// exp.ClusterStats fills once for instance-scoped and cluster-wide values
// alike, to the public Stats.
func stats(s exp.Stats) Stats {
	return Stats{
		Messages: s.Msgs, Bytes: s.Bytes, Rounds: s.Rounds,
		Verifies: s.Verifies, ScriptVerifies: s.ScriptVerifies,
		RSOps: s.RSOps, Rejected: s.Rejected, Equivocations: s.Equivocations,
	}
}

// Handle awaits one protocol instance launched on a Cluster; R is the
// protocol's result type. The per-protocol names (CoinHandle, VBAHandle, …)
// are aliases of its instantiations.
type Handle[R any] struct {
	wait   func(context.Context) error
	result func() (R, error)
}

// Wait blocks until every honest party finished the instance, then reports
// the outcome. An outcome that violates the protocol's agreement property
// (a bug, not an operational condition) is an error.
func (h *Handle[R]) Wait(ctx context.Context) (R, error) {
	if err := h.wait(ctx); err != nil {
		var zero R
		return zero, err
	}
	return h.result()
}

// CoinResult is the outcome of FlipCoin.
type CoinResult struct {
	Bit    byte // the (first honest party's) coin bit
	Agreed bool // whether all honest parties saw the same bit (prob ≥ 1/3; near 1 benignly)
	Stats  Stats
}

// CoinHandle awaits one common-coin instance.
type CoinHandle = Handle[CoinResult]

// FlipCoin launches one reasonably fair common coin (Alg. 4, Theorem 3)
// under the given instance tag.
func (c *Cluster) FlipCoin(tag string) (*CoinHandle, error) {
	if err := c.claim(tag); err != nil {
		return nil, err
	}
	inst := exp.LaunchPaperCoin(c.hc, tag, c.genesis)
	return &CoinHandle{wait: inst.Wait, result: func() (CoinResult, error) {
		out := inst.Outcome()
		return CoinResult{Bit: out.Bit, Agreed: out.Agreed, Stats: stats(out.Stats)}, nil
	}}, nil
}

// ABAResult is the outcome of DecideBit.
type ABAResult struct {
	Bit    byte
	Rounds float64 // mean protocol rounds to decision across honest parties
	Stats  Stats
}

// ABAHandle awaits one binary-agreement instance.
type ABAHandle = Handle[ABAResult]

// DecideBit launches one asynchronous binary agreement driven by the
// paper's coin (Theorem 4). inputs[i] is party i's bit; len(inputs) must
// be N.
func (c *Cluster) DecideBit(tag string, inputs []byte) (*ABAHandle, error) {
	if len(inputs) != c.n {
		return nil, fmt.Errorf("repro: %d inputs for N=%d", len(inputs), c.n)
	}
	if err := c.claim(tag); err != nil {
		return nil, err
	}
	inst := exp.LaunchPaperABA(c.hc, tag, inputs, c.genesis)
	return &ABAHandle{wait: inst.Wait, result: func() (ABAResult, error) {
		out := inst.Outcome()
		if !out.Agreed {
			return ABAResult{}, errors.New("repro: ABA agreement violated (bug)")
		}
		return ABAResult{Bit: out.Bit, Rounds: out.MeanRound, Stats: stats(out.Stats)}, nil
	}}, nil
}

// ElectionResult is the outcome of ElectLeader.
type ElectionResult struct {
	Leader    int  // 0-based leader index, identical at all honest parties
	ByDefault bool // true when the protocol fell back to the default leader
	Stats     Stats
}

// ElectionHandle awaits one leader-election instance.
type ElectionHandle = Handle[ElectionResult]

// ElectLeader launches one leader election with perfect agreement (Alg. 5,
// Theorem 5).
func (c *Cluster) ElectLeader(tag string) (*ElectionHandle, error) {
	if err := c.claim(tag); err != nil {
		return nil, err
	}
	inst := exp.LaunchPaperElection(c.hc, tag, c.genesis)
	return &ElectionHandle{wait: inst.Wait, result: func() (ElectionResult, error) {
		out := inst.Outcome()
		if !out.Agreed {
			return ElectionResult{}, errors.New("repro: election agreement violated (bug)")
		}
		return ElectionResult{Leader: out.Leader, ByDefault: out.ByDefault, Stats: stats(out.Stats)}, nil
	}}, nil
}

// VBAResult is the outcome of Agree.
type VBAResult struct {
	Value []byte // the agreed, externally valid proposal
	Stats Stats
}

// VBAHandle awaits one validated-agreement instance.
type VBAHandle = Handle[VBAResult]

// Agree launches one validated Byzantine agreement (Theorem 6):
// proposals[i] is party i's input and valid is the external-validity
// predicate Q; the decided value satisfies Q and was proposed by some
// party. valid must be safe for concurrent use on the live runtimes.
func (c *Cluster) Agree(tag string, proposals [][]byte, valid func([]byte) bool) (*VBAHandle, error) {
	if len(proposals) != c.n {
		return nil, fmt.Errorf("repro: %d proposals for N=%d", len(proposals), c.n)
	}
	if valid == nil {
		return nil, errors.New("repro: nil validity predicate")
	}
	for i, p := range proposals {
		if c.hc.Byz[i] {
			continue
		}
		if !valid(p) {
			return nil, fmt.Errorf("repro: proposal %d fails the predicate", i)
		}
	}
	if err := c.claim(tag); err != nil {
		return nil, err
	}
	inst := exp.LaunchPaperVBA(c.hc, tag, proposals, valid, c.genesis)
	return &VBAHandle{wait: inst.Wait, result: func() (VBAResult, error) {
		out := inst.Outcome()
		if !out.Agreed {
			return VBAResult{}, errors.New("repro: VBA agreement violated (bug)")
		}
		return VBAResult{Value: out.Value, Stats: stats(out.Stats)}, nil
	}}, nil
}

// DKGResult is the outcome of GenerateKey.
type DKGResult struct {
	Contributors int // distinct dealers aggregated into the key (≥ N−F)
	Stats        Stats
}

// DKGHandle awaits one distributed-key-generation instance.
type DKGHandle = Handle[DKGResult]

// GenerateKey launches the asynchronous distributed key generation of
// §7.3: all honest parties end with consistent threshold key material
// without any trusted dealer.
func (c *Cluster) GenerateKey(tag string) (*DKGHandle, error) {
	if err := c.claim(tag); err != nil {
		return nil, err
	}
	inst := exp.LaunchPaperADKG(c.hc, tag, c.genesis)
	return &DKGHandle{wait: inst.Wait, result: func() (DKGResult, error) {
		out := inst.Outcome()
		if !out.KeysAgree {
			return DKGResult{}, errors.New("repro: DKG produced inconsistent keys (bug)")
		}
		return DKGResult{Contributors: out.Contributors, Stats: stats(out.Stats)}, nil
	}}, nil
}

// BeaconResult is the outcome of RunBeacon.
type BeaconResult struct {
	Values       [][16]byte // one unbiased 128-bit value per epoch
	MeanAttempts float64    // Election instances per epoch (expected ≤ 3)
	Stats        Stats
}

// BeaconHandle awaits one multi-epoch beacon instance.
type BeaconHandle = Handle[BeaconResult]

// NewBeacon launches the DKG-free asynchronous random beacon of §7.3 for
// the given number of epochs.
func (c *Cluster) NewBeacon(tag string, epochs int) (*BeaconHandle, error) {
	if epochs < 1 {
		return nil, fmt.Errorf("repro: epochs=%d", epochs)
	}
	if err := c.claim(tag); err != nil {
		return nil, err
	}
	inst := exp.LaunchPaperBeacon(c.hc, tag, epochs, c.genesis)
	return &BeaconHandle{wait: inst.Wait, result: func() (BeaconResult, error) {
		out := inst.Outcome()
		if !out.Agreed {
			return BeaconResult{}, errors.New("repro: beacon values diverged (bug)")
		}
		res := BeaconResult{MeanAttempts: out.MeanAttempt, Stats: stats(out.Stats)}
		for _, v := range out.Values {
			res.Values = append(res.Values, [16]byte(v))
		}
		return res, nil
	}}, nil
}

// --- one-shot wrappers ---

// Config selects the cluster shape for a one-shot protocol run (the
// original blocking API). Each call builds a fresh single-use simulated
// cluster; long-lived workloads should use NewCluster, which pays key
// setup once across many instances.
type Config struct {
	// N is the number of parties (required, ≥ 4 for f ≥ 1).
	N int
	// F bounds corruptions; zero or negative selects ⌊(N−1)/3⌋.
	F int
	// Seed drives all randomness; equal seeds replay identical executions.
	Seed int64
	// GenesisNonce, when non-nil, switches the coin layer to the paper's
	// adaptively secure variant under a one-time common random string
	// (Table 1's "PKI, 1-time rnd" row): Seeding is skipped and all VRFs
	// run on this nonce.
	GenesisNonce []byte
	// Crashed makes the highest-indexed parties crash-faulty (≤ F).
	Crashed int
}

func (c Config) cluster() (*Cluster, error) {
	opts := []Option{WithSeed(c.Seed), WithCrashed(c.Crashed)}
	if c.F > 0 {
		opts = append(opts, WithMaxFaults(c.F))
	}
	if c.GenesisNonce != nil {
		opts = append(opts, WithGenesisNonce(c.GenesisNonce))
	}
	return NewCluster(c.N, opts...)
}

// oneShot builds cfg's single-use cluster, launches one instance on it and
// waits for the result.
func oneShot[R any](cfg Config, launch func(*Cluster) (*Handle[R], error)) (R, error) {
	var zero R
	c, err := cfg.cluster()
	if err != nil {
		return zero, err
	}
	defer c.Close()
	h, err := launch(c)
	if err != nil {
		return zero, err
	}
	return h.Wait(context.Background())
}

// FlipCoin runs one reasonably fair common coin (Alg. 4, Theorem 3) on a
// fresh single-use cluster.
func FlipCoin(cfg Config) (CoinResult, error) {
	return oneShot(cfg, func(c *Cluster) (*CoinHandle, error) { return c.FlipCoin("coin") })
}

// DecideBit runs one asynchronous binary agreement driven by the paper's
// coin (Theorem 4). inputs[i] is party i's bit; len(inputs) must be N.
func DecideBit(cfg Config, inputs []byte) (ABAResult, error) {
	return oneShot(cfg, func(c *Cluster) (*ABAHandle, error) { return c.DecideBit("aba", inputs) })
}

// ElectLeader runs one leader election with perfect agreement (Alg. 5,
// Theorem 5).
func ElectLeader(cfg Config) (ElectionResult, error) {
	return oneShot(cfg, func(c *Cluster) (*ElectionHandle, error) { return c.ElectLeader("el") })
}

// Agree runs one validated Byzantine agreement (Theorem 6): proposals[i]
// is party i's input and valid is the external-validity predicate Q; the
// decided value satisfies Q and was proposed by some party.
func Agree(cfg Config, proposals [][]byte, valid func([]byte) bool) (VBAResult, error) {
	return oneShot(cfg, func(c *Cluster) (*VBAHandle, error) { return c.Agree("vba", proposals, valid) })
}

// GenerateKey runs the asynchronous distributed key generation of §7.3:
// all honest parties end with consistent threshold key material without
// any trusted dealer.
func GenerateKey(cfg Config) (DKGResult, error) {
	return oneShot(cfg, func(c *Cluster) (*DKGHandle, error) { return c.GenerateKey("dkg") })
}

// RunBeacon runs the DKG-free asynchronous random beacon of §7.3 for the
// given number of epochs.
func RunBeacon(cfg Config, epochs int) (BeaconResult, error) {
	return oneShot(cfg, func(c *Cluster) (*BeaconHandle, error) { return c.NewBeacon("bcn", epochs) })
}
