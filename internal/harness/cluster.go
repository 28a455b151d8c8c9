// Package harness assembles long-lived keyed clusters — key setup (bulletin
// PKI), network, per-node protocol wiring, crash profiles — over either
// runtime: the deterministic simulator (internal/sim) or the concurrent
// live runtime (internal/livenet). Key setup happens once per cluster; the
// session layer (internal/exp launchers, the public repro.Cluster) then
// multiplexes many protocol instances onto it through the proto.Driver
// contract. It is shared by the test suite, the testing.B benchmarks, and
// cmd/benchtable (see README.md for the experiment index).
package harness

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/crypto/rs"
	"repro/internal/crypto/scache"
	"repro/internal/crypto/vcache"
	"repro/internal/livenet"
	"repro/internal/pki"
	"repro/internal/proto"
	"repro/internal/sim"
)

// Cluster is a keyed n-party network with per-instance cost accounting.
// Exactly one of Net (simulator) or Live (live runtime) is non-nil;
// runtime-agnostic code goes through the Driver methods below, while
// sim-only measurements may keep using Net directly.
type Cluster struct {
	N, F  int
	Net   *sim.Network     // non-nil on the simulator runtime
	Live  *livenet.Network // non-nil on the live runtimes
	Keys  []*pki.Keyring
	Board *pki.Board
	Byz   map[int]bool

	drv     proto.Driver
	liveDrv *livenet.Driver // non-nil on the live runtimes; fails waiters on Close
	rs0     rs.Stats        // rs codec counters at construction (RSStats baseline)
}

// Options tune simulator cluster construction.
type Options struct {
	Scheduler sim.Scheduler
	Byzantine map[int]bool // corrupted parties (crashed unless wired otherwise by the test)
	Crash     bool         // if true, Byzantine parties are crashed outright
	Budget    int64        // per-Await delivery budget; <= 0 = sim.DefaultDeliveryBudget
}

// setupKeys derives the bulletin-PKI key material for an n-party cluster
// and returns the normalized corruption bound (negative f selects
// ⌊(n−1)/3⌋). The derivation depends only on (n, seed), so the simulator
// and the live runtime built from the same seed hold identical keys — the
// basis of the sim↔livenet equivalence guarantee.
func setupKeys(n, f int, seed int64) ([]*pki.Keyring, *pki.Board, int, error) {
	if f < 0 {
		f = (n - 1) / 3
	}
	if n < 3*f+1 {
		return nil, nil, 0, fmt.Errorf("harness: n=%d cannot tolerate f=%d", n, f)
	}
	keys, board, err := pki.SetupSeeded(n, seed)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("harness: key setup: %w", err)
	}
	return keys, board, f, nil
}

// NewCluster builds an n-party simulated cluster with fresh deterministic
// keys. f defaults to ⌊(n−1)/3⌋ when negative.
func NewCluster(n, f int, seed int64, opts Options) (*Cluster, error) {
	keys, board, f, err := setupKeys(n, f, seed)
	if err != nil {
		return nil, err
	}
	nw := sim.New(sim.Config{
		N: n, F: f, Seed: seed,
		Scheduler: opts.Scheduler,
		Byzantine: opts.Byzantine,
	})
	c := &Cluster{
		N: n, F: f, Net: nw, Keys: keys, Board: board, Byz: opts.Byzantine,
		drv: sim.NewDriver(nw, opts.Budget),
		rs0: rs.Snapshot(),
	}
	if c.Byz == nil {
		c.Byz = map[int]bool{}
	}
	if opts.Crash {
		for i := range c.Byz {
			if c.Byz[i] {
				nw.Node(i).Crash()
			}
		}
	}
	return c, nil
}

// LiveOptions tune live cluster construction.
type LiveOptions struct {
	Transport livenet.Transport   // Channels (default) or TCP
	Jitter    time.Duration       // Channels-transport delivery jitter
	Timeout   time.Duration       // per-Await cap; <= 0 = livenet.DefaultAwaitTimeout
	Crashed   map[int]bool        // crash-faulty parties
	WAN       *livenet.WANProfile // per-link WAN emulation (TCP transport only)
}

// NewLiveCluster builds an n-party cluster on the concurrent live runtime.
// Key derivation matches NewCluster for the same (n, seed); the TCP
// transport's handshake signs with the same bulletin-PKI keys the protocols
// use, so wire identity and protocol identity coincide.
func NewLiveCluster(n, f int, seed int64, opts LiveOptions) (*Cluster, error) {
	keys, board, f, err := setupKeys(n, f, seed)
	if err != nil {
		return nil, err
	}
	auth := &livenet.Auth{Board: board.SigKeys()}
	for _, k := range keys {
		auth.Keys = append(auth.Keys, k.Sig)
	}
	nw, err := livenet.New(livenet.Config{
		N: n, F: f, Seed: seed,
		Transport: opts.Transport,
		Jitter:    opts.Jitter,
		Auth:      auth,
		WAN:       opts.WAN,
	})
	if err != nil {
		return nil, err
	}
	byz := opts.Crashed
	if byz == nil {
		byz = map[int]bool{}
	}
	for i := range byz {
		if byz[i] {
			nw.Node(i).Crash()
		}
	}
	drv := livenet.NewDriver(nw, opts.Timeout)
	return &Cluster{
		N: n, F: f, Live: nw, Keys: keys, Board: board, Byz: byz,
		drv: drv, liveDrv: drv,
		rs0: rs.Snapshot(),
	}, nil
}

// --- session surface (proto.Driver pass-through) ---

// Runtime returns party i's protocol-facing runtime.
func (c *Cluster) Runtime(i int) proto.Runtime { return c.drv.Runtime(i) }

// Launch runs fn in party i's dispatch context (inline on the simulator,
// on the node's dispatcher goroutine on the live runtime).
func (c *Cluster) Launch(i int, fn func()) { c.drv.Launch(i, fn) }

// Update runs fn under the session lock; protocol callbacks must route
// collector mutations through it (see proto.Driver).
func (c *Cluster) Update(fn func()) { c.drv.Update(fn) }

// Await blocks until done() holds: the simulator drives deliveries, the
// live runtime waits on completion signals.
func (c *Cluster) Await(ctx context.Context, done func() bool) error {
	return c.drv.Await(ctx, done)
}

// Close releases the live runtime's goroutines and sockets and fails any
// goroutine still blocked in Await (a closed network can never complete an
// instance); it is a no-op on the simulator.
func (c *Cluster) Close() {
	if c.liveDrv != nil {
		c.liveDrv.Close()
	}
	if c.Live != nil {
		c.Live.Close()
	}
}

// InstanceTally reports the traffic of one instance tag (the tag's own path
// plus every tag/… sub-path) — honest traffic on the simulator, all traffic
// on the live runtime (which has no Byzantine senders).
func (c *Cluster) InstanceTally(tag string) proto.Tally {
	if c.Net != nil {
		return c.Net.Metrics().Honest.ByInstance(tag)
	}
	return c.Live.ByInstance(tag)
}

// TotalTally reports the cluster's cumulative traffic.
func (c *Cluster) TotalTally() proto.Tally {
	if c.Net != nil {
		return c.Net.Metrics().Honest.Tally
	}
	return c.Live.TotalTally()
}

// TCPStats reports the live TCP transport's framing, reconnect, and
// WAN-emulation counters (zero on the simulator and Channels transports).
func (c *Cluster) TCPStats() livenet.TCPStats {
	if c.Live == nil {
		return livenet.TCPStats{}
	}
	return c.Live.TCPStats()
}

// Sever force-closes the live (from → to) TCP connection; the transport
// redials with backoff and resends unacked frames. No-op off TCP. It
// reports whether a live connection was actually killed, so callers that
// need a guaranteed mid-flight kill can retry until the link was up.
func (c *Cluster) Sever(from, to int) bool {
	if c.Live != nil {
		return c.Live.Sever(from, to)
	}
	return false
}

// Rejected reports malformed messages dropped by protocol handlers
// cluster-wide — the detection counter Byzantine-behavior specs assert on.
func (c *Cluster) Rejected() int64 {
	if c.Net != nil {
		return c.Net.Metrics().Rejected
	}
	return c.Live.Rejected()
}

// Equivocations reports conflicting-message evidence recorded by protocol
// handlers cluster-wide — proof of actively lying senders, as opposed to
// Rejected's unattributable garbage.
func (c *Cluster) Equivocations() int64 {
	if c.Net != nil {
		return c.Net.Metrics().Equivocations
	}
	return c.Live.Equivocations()
}

// Steps reports simulator deliveries so far (0 on the live runtime).
func (c *Cluster) Steps() int64 {
	if c.Net != nil {
		return c.Net.Steps()
	}
	return 0
}

// VerifyStats reports the cluster's shared VRF verifier-cache counters
// (pki.Setup hands every keyring the same memoizing verifier, so the
// counters cover all parties on both runtimes).
func (c *Cluster) VerifyStats() vcache.Stats { return c.Keys[0].Verifier.Stats() }

// ScriptVerifyStats reports the cluster's shared PVSS script verifier-cache
// counters (pki.Setup hands every keyring the same memoizing script
// verifier, so the counters cover all parties on both runtimes).
func (c *Cluster) ScriptVerifyStats() scache.Stats { return c.Keys[0].Scripts.Stats() }

// RSStats reports the Reed–Solomon codec work performed since the cluster
// was built. The rs counters (and the codec/basis caches behind them) are
// process-wide rather than per-cluster — the same reuse discipline as the
// bases themselves — so the delta is exact only while no other cluster
// runs; the matrix engine runs the spec that reads it Alone.
func (c *Cluster) RSStats() rs.Stats { return rs.Snapshot().Delta(c.rs0) }

// Depth reports party i's current causal depth (0 on the live runtime).
func (c *Cluster) Depth(i int) int { return c.Runtime(i).Depth() }

// Honest returns the number of non-corrupted parties.
func (c *Cluster) Honest() int {
	h := c.N
	for _, b := range c.Byz {
		if b {
			h--
		}
	}
	return h
}

// EachHonest invokes fn for every honest party index.
func (c *Cluster) EachHonest(fn func(i int)) {
	for i := 0; i < c.N; i++ {
		if !c.Byz[i] {
			fn(i)
		}
	}
}

// FirstFByzantine marks parties 0 … f-1 as corrupted — a convenient worst
// case because low indices win ties in several protocols.
func FirstFByzantine(f int) map[int]bool {
	m := make(map[int]bool, f)
	for i := 0; i < f; i++ {
		m[i] = true
	}
	return m
}

// LastFByzantine marks the top-indexed f parties as corrupted.
func LastFByzantine(n, f int) map[int]bool {
	m := make(map[int]bool, f)
	for i := n - f; i < n; i++ {
		m[i] = true
	}
	return m
}

// CrashProfile names which parties a crash-fault scenario fells.
type CrashProfile string

// Crash profiles for Crashed.
const (
	CrashLast   CrashProfile = "last"   // top-indexed parties (the default)
	CrashFirst  CrashProfile = "first"  // low indices, which win ties in several protocols
	CrashSpread CrashProfile = "spread" // k seed-derived distinct indices
)

// Crashed returns the corruption map for k crashed parties under the given
// profile. The spread profile derives its choice from seed alone, so a fixed
// (profile, n, k, seed) tuple is replayable. An empty profile means CrashLast.
func Crashed(profile CrashProfile, n, k int, seed int64) map[int]bool {
	if k <= 0 {
		return map[int]bool{}
	}
	switch profile {
	case CrashFirst:
		return FirstFByzantine(k)
	case CrashSpread:
		rng := rand.New(rand.NewSource(seed ^ 0xc4a5_4ed5))
		m := make(map[int]bool, k)
		for _, i := range rng.Perm(n)[:k] {
			m[i] = true
		}
		return m
	default:
		return LastFByzantine(n, k)
	}
}
