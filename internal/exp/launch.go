package exp

// The instance launcher: Launch wires one instance of a kinds-table
// protocol per honest party onto a long-lived harness.Cluster under a
// caller-chosen instance tag, tracks per-party completion and collects the
// decisions; the typed views below report them as instance-scoped outcomes.
// Every session-level surface goes through it or its tracker — the one-shot
// Run* functions (the hand-wired ones via runParties), the
// concurrent-instance family (mux.go), the Byzantine runner (byz.go),
// nodenet's simulator reference and the public repro.Cluster — and it is
// runtime-agnostic: the same launcher drives the deterministic simulator and
// the live runtime, through the proto.Driver contract.

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"

	"repro/internal/core/beacon"
	"repro/internal/core/vba"
	"repro/internal/harness"
	"repro/internal/kinds"
	"repro/internal/proto"
	"repro/internal/sim"
)

// tracker books per-party completion of one instance tag on one cluster.
// report must be called inside Cluster.Update; done/missing are evaluated
// under the same lock by Await.
type tracker struct {
	c      *harness.Cluster
	tag    string
	need   int
	got    map[int]bool
	rounds int
}

func newTracker(c *harness.Cluster, tag string) *tracker {
	return &tracker{c: c, tag: tag, need: c.Honest(), got: make(map[int]bool)}
}

// bump folds party i's current causal depth into the instance's rounds
// metric; call it from any output callback (inside Update).
func (t *tracker) bump(i int) {
	if d := t.c.Depth(i); d > t.rounds {
		t.rounds = d
	}
}

func (t *tracker) report(i int) {
	t.bump(i)
	t.got[i] = true
}

func (t *tracker) done() bool { return len(t.got) == t.need }

func (t *tracker) missing() []int {
	var out []int
	t.c.EachHonest(func(i int) {
		if !t.got[i] {
			out = append(out, i)
		}
	})
	return out
}

// wait blocks until every honest party reported. A simulator stall comes
// back as a *sim.StallError annotated with the parties still missing.
func (t *tracker) wait(ctx context.Context) error {
	err := t.c.Await(ctx, t.done)
	var stall *sim.StallError
	if errors.As(err, &stall) {
		stall.Missing = t.missing()
	}
	if err != nil {
		return fmt.Errorf("instance %q: %w", t.tag, err)
	}
	return nil
}

// ClusterStats fills a Stats with the cluster's cumulative counters: total
// honest traffic, simulator deliveries, and the verifier-cache, codec and
// detection counters that every instance of the cluster shares. It is the
// one place those counters are read; instance- and run-scoped Stats start
// from it and overwrite Msgs, Bytes and Rounds.
func ClusterStats(c *harness.Cluster) Stats {
	tl := c.TotalTally()
	return Stats{
		N: c.N, F: c.F,
		Msgs: tl.Msgs, Bytes: tl.Bytes,
		Steps: c.Steps(), Verifies: c.VerifyStats().Verifies,
		ScriptVerifies: c.ScriptVerifyStats().Verifies, RSOps: c.RSStats().Ops(),
		Rejected: c.Rejected(), Equivocations: c.Equivocations(),
	}
}

// stats scopes the paper's metrics to this instance's traffic (the tag
// path and every tag/… sub-path). Steps and Verifies stay cluster-global —
// simulator deliveries and the verifier cache are shared by every
// concurrent instance.
func (t *tracker) stats() Stats {
	s := ClusterStats(t.c)
	tl := t.c.InstanceTally(t.tag)
	s.Msgs, s.Bytes, s.Rounds = tl.Msgs, tl.Bytes, t.rounds
	return s
}

// Instance is one instance of a kinds-table protocol launched on a cluster:
// per-party completion plus every honest party's decision.
type Instance struct {
	t    *tracker
	decs []*kinds.Decision // indexed by party; nil at corrupted parties
}

// Launch builds and starts one instance of the named kind per honest party
// under tag, in party order; in(i) is party i's input (a nil in means the
// kind takes none). An unknown kind name is an error.
func Launch(c *harness.Cluster, name, tag string, genesis []byte, in func(i int) kinds.Input) (*Instance, error) {
	start, err := kinds.Lookup(name)
	if err != nil {
		return nil, err
	}
	inst := newInstance(c, tag)
	c.EachHonest(func(i int) {
		var input kinds.Input
		if in != nil {
			input = in(i)
		}
		decide := inst.record(i)
		c.Launch(i, func() { start(c.Runtime(i), tag, c.Keys[i], genesis, input, decide) })
	})
	return inst, nil
}

func newInstance(c *harness.Cluster, tag string) *Instance {
	return &Instance{t: newTracker(c, tag), decs: make([]*kinds.Decision, c.N)}
}

// record returns party i's decision callback: it books the decision and
// the party's completion under the session lock.
func (inst *Instance) record(i int) func(*kinds.Decision) {
	return func(d *kinds.Decision) {
		inst.t.c.Update(func() {
			inst.decs[i] = d
			inst.t.report(i)
		})
	}
}

// launchKnown is Launch for a name already known to be in the table (a
// literal of this package, or one the caller resolved): the lookup cannot
// fail.
func launchKnown(c *harness.Cluster, name, tag string, genesis []byte, in func(i int) kinds.Input) *Instance {
	inst, err := Launch(c, name, tag, genesis, in)
	if err != nil {
		panic(err)
	}
	return inst
}

// Wait blocks until every honest party decided.
func (inst *Instance) Wait(ctx context.Context) error { return inst.t.wait(ctx) }

// Decisions returns the honest parties' decisions in party order, once Wait
// returned nil. The first entry is the one reported as "the" decision.
func (inst *Instance) Decisions() []*kinds.Decision {
	ds := make([]*kinds.Decision, 0, inst.t.need)
	inst.t.c.EachHonest(func(i int) { ds = append(ds, inst.decs[i]) })
	return ds
}

// Agreed reports whether every honest party reached the same decision.
func (inst *Instance) Agreed() bool { return kinds.Agree(inst.Decisions()) }

// --- typed views ---
//
// One per kind, under the launcher names the public session facade
// (repro.Cluster), the benchmarks and the tests use: each configures its
// protocol by the cluster's genesis nonce alone and derives the kind's
// Outcome from the decisions — the agreed value from the lowest-indexed
// honest party, the per-party observations by a fold over all of them.

// CoinInstance is one common-coin (Alg. 4) instance launched on a cluster.
type CoinInstance struct{ *Instance }

// LaunchPaperCoin launches one coin per honest party under tag.
func LaunchPaperCoin(c *harness.Cluster, tag string, genesis []byte) *CoinInstance {
	return &CoinInstance{launchKnown(c, "coin", tag, genesis, nil)}
}

// Outcome aggregates the instance after Wait returned nil.
func (ci CoinInstance) Outcome() CoinOutcome {
	ds := ci.Decisions()
	out := CoinOutcome{Stats: ci.t.stats(), Agreed: ci.Agreed(), Bit: byte(ds[0].Bit), MaxIsSet: allMaxSet(ds)}
	if c := ci.t.c; c.Net != nil {
		out.PerPhase = map[string]proto.Tally{
			"seeding":   c.Net.Metrics().ByPrefix(ci.t.tag + "/sd/"),
			"avss":      c.Net.Metrics().ByPrefix(ci.t.tag + "/av/"),
			"wcs":       c.Net.Metrics().ByPrefix(ci.t.tag + "/wcs"),
			"recreq":    c.Net.Metrics().ByPrefix(ci.t.tag + "/rr"),
			"candidate": c.Net.Metrics().ByPrefix(ci.t.tag + "/cd"),
		}
	}
	return out
}

// allMaxSet reports whether every party's speculative coin max was non-⊥.
func allMaxSet(ds []*kinds.Decision) bool {
	for _, d := range ds {
		if !d.MaxSet {
			return false
		}
	}
	return true
}

// ABAInstance is one binary-agreement instance launched on a cluster.
type ABAInstance struct{ *Instance }

// LaunchPaperABA launches one ABA per honest party; inputs[i] is party i's
// bit, and the round coins are paper coins under tag/c.
func LaunchPaperABA(c *harness.Cluster, tag string, inputs []byte, genesis []byte) *ABAInstance {
	return &ABAInstance{launchKnown(c, "aba", tag, genesis, func(i int) kinds.Input {
		return kinds.Input{Bit: inputs[i]}
	})}
}

// Outcome aggregates the instance after Wait returned nil.
func (ai ABAInstance) Outcome() ABAOutcome {
	ds := ai.Decisions()
	out := ABAOutcome{Stats: ai.t.stats(), Agreed: ai.Agreed(), Bit: byte(ds[0].Bit)}
	total := 0
	for _, d := range ds {
		total += d.Round
		out.MaxRound = max(out.MaxRound, d.Round)
	}
	out.MeanRound = float64(total) / float64(len(ds))
	return out
}

// ElectionInstance is one leader-election (Alg. 5) instance on a cluster.
type ElectionInstance struct{ *Instance }

// LaunchPaperElection launches one election per honest party.
func LaunchPaperElection(c *harness.Cluster, tag string, genesis []byte) *ElectionInstance {
	return &ElectionInstance{launchKnown(c, "election", tag, genesis, nil)}
}

// Outcome aggregates the instance after Wait returned nil.
func (ei ElectionInstance) Outcome() ElectionOutcome {
	d := ei.Decisions()[0]
	return ElectionOutcome{Stats: ei.t.stats(), Agreed: ei.Agreed(), Leader: d.Leader, ByDefault: d.ByDefault}
}

// VBAInstance is one validated-BA instance launched on a cluster.
type VBAInstance struct{ *Instance }

// vbaInputs gives party i proposals[i] under the external predicate valid.
func vbaInputs(proposals [][]byte, valid vba.Predicate) func(i int) kinds.Input {
	return func(i int) kinds.Input { return kinds.Input{Proposal: proposals[i], Valid: valid} }
}

// LaunchPaperVBA launches one VBA per honest party; proposals[i] is party
// i's input, valid the external predicate Q.
func LaunchPaperVBA(c *harness.Cluster, tag string, proposals [][]byte, valid func([]byte) bool, genesis []byte) *VBAInstance {
	return &VBAInstance{launchKnown(c, "vba", tag, genesis, vbaInputs(proposals, valid))}
}

// Outcome aggregates the instance after Wait returned nil.
func (vi VBAInstance) Outcome() VBAOutcome {
	ds := vi.Decisions()
	out := VBAOutcome{Stats: vi.t.stats(), Agreed: vi.Agreed(), Value: []byte(ds[0].Value)}
	for _, d := range ds {
		out.MaxView = max(out.MaxView, d.View)
	}
	return out
}

// ADKGInstance is one distributed-key-generation (§7.3) instance.
type ADKGInstance struct{ *Instance }

// LaunchPaperADKG launches one ADKG per honest party.
func LaunchPaperADKG(c *harness.Cluster, tag string, genesis []byte) *ADKGInstance {
	return &ADKGInstance{launchKnown(c, "adkg", tag, genesis, nil)}
}

// Outcome aggregates the instance after Wait returned nil.
func (di ADKGInstance) Outcome() ADKGOutcome {
	return ADKGOutcome{Stats: di.t.stats(), KeysAgree: di.Agreed(), Contributors: di.Decisions()[0].Weight}
}

// BeaconInstance is one multi-epoch DKG-free beacon (§7.3) instance.
type BeaconInstance struct{ *Instance }

// LaunchPaperBeacon launches one beacon per honest party, running for the
// given number of epochs.
func LaunchPaperBeacon(c *harness.Cluster, tag string, epochs int, genesis []byte) *BeaconInstance {
	return &BeaconInstance{launchKnown(c, "beacon", tag, genesis, func(int) kinds.Input {
		return kinds.Input{Epochs: epochs}
	})}
}

// Outcome aggregates the instance after Wait returned nil.
func (bi BeaconInstance) Outcome() BeaconOutcome {
	d := bi.Decisions()[0]
	out := BeaconOutcome{Stats: bi.t.stats(), Epochs: len(d.EpochValues), Agreed: bi.Agreed()}
	total := 0
	for k, hv := range d.EpochValues {
		var v beacon.Value
		// The kinds table hex-encoded the value: decoding cannot fail.
		_, _ = hex.Decode(v[:], []byte(hv))
		out.Values = append(out.Values, v)
		total += d.Attempts[k]
	}
	out.MeanAttempt = float64(total) / float64(out.Epochs)
	return out
}
