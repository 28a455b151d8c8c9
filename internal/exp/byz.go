package exp

// Byzantine-party runs: clusters where the last parties do not crash but
// actively lie, driving the honest receipt paths that the detection
// counters (Stats.Rejected, Stats.Equivocations) instrument. The lying
// strategies live in internal/adversary; this file owns the runner that
// wires a registered behavior onto a party, the spec family (group "byz")
// the CI safety matrix sweeps, and the beyond-the-bound violation spec.

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"strings"

	"repro/internal/adversary"
	"repro/internal/harness"
	"repro/internal/kinds"
	"repro/internal/sim"
)

// ByzOutcome is the result of RunByzantine.
type ByzOutcome struct {
	Stats Stats
	// Agreed reports whether every honest party reached the same decision
	// — the safety half of the byz-spec contract. For the coin protocol it
	// reflects the α-agreement rate, not a hard guarantee.
	Agreed bool
	// Decision is a canonical one-line summary of the honest outcome.
	Decision string
	// Digest fingerprints Decision; two runs of the same seed must match.
	Digest uint32
	// Liars is how many parties ran a lying behavior.
	Liars int
}

// okPrefixed is the external validity predicate Q of every VBA workload in
// the registry. Behaviors that rewrite proposals (vba-doublevote's
// value+"!") keep the prefix intact: their lie must survive Q so the
// pin-conflict path, not predicate filtering, is what catches them.
func okPrefixed(v []byte) bool { return strings.HasPrefix(string(v), "ok:") }

// okProposal is party i's distinct valid proposal.
func okProposal(i int) []byte { return []byte(fmt.Sprintf("ok:p%d", i)) }

// RunByzantine executes one protocol run in which the top-indexed
// len(behaviors) parties each run the named lying behavior (repeat a name
// to field several liars). The liars execute the ordinary protocol state
// machines through an adversary.Wrap'd runtime, so they participate —
// and lie — for as long as the run lasts. rs.Crash additionally fells
// that many parties just below the liars, composing crash faults with
// active lies; rs.Sched composes adversarial scheduling as usual.
//
// protocol names the workload's kind in the kinds table. Honest parties run
// the standard launcher for it; safety is judged over their decisions only.
func RunByzantine(rs RunSpec, protocol string, behaviors []string) (ByzOutcome, error) {
	start, err := kinds.Lookup(protocol)
	if err != nil {
		return ByzOutcome{}, fmt.Errorf("byz run: %w", err)
	}
	byz := make(map[int]bool, len(behaviors)+rs.Crash)
	liars := make([]int, 0, len(behaviors))
	for k := range behaviors {
		i := rs.N - 1 - k
		byz[i] = true
		liars = append(liars, i)
	}
	crashed := make([]int, 0, rs.Crash)
	for k := 0; k < rs.Crash; k++ {
		i := rs.N - 1 - len(behaviors) - k
		byz[i] = true
		crashed = append(crashed, i)
	}
	c, err := harness.NewCluster(rs.N, rs.faults(), rs.Seed, harness.Options{
		Scheduler: rs.Sched, Byzantine: byz, Budget: rs.steps(),
	})
	if err != nil {
		return ByzOutcome{}, err
	}
	for _, i := range crashed {
		c.Net.Node(i).Crash()
	}

	// Honest parties: the standard launcher (EachHonest skips the byz set).
	// Liars: the same table entry on a wrapped runtime with the decision
	// discarded — their outputs are not part of the contract.
	const tag = "byz"
	in := func(i int) kinds.Input {
		return kinds.Input{Bit: byte(i % 2), Proposal: okProposal(i), Valid: okPrefixed}
	}
	inst := launchKnown(c, protocol, tag, rs.Genesis, in)
	for k, i := range liars {
		b, ok := adversary.Lookup(behaviors[k])
		if !ok {
			return ByzOutcome{}, fmt.Errorf("byz run: unknown behavior %q", behaviors[k])
		}
		wrt := adversary.Wrap(c.Runtime(i), b)
		c.Launch(i, func() {
			start(wrt, tag, c.Keys[i], rs.Genesis, in(i), func(*kinds.Decision) {})
		})
	}

	if err := inst.Wait(context.Background()); err != nil {
		return ByzOutcome{}, fmt.Errorf("byz %s run: %w", protocol, err)
	}
	agreed := inst.Agreed()
	decision := byzSummary(inst.Decisions(), agreed)
	h := fnv.New32a()
	h.Write([]byte(decision))
	return ByzOutcome{
		Stats:    collectStats(c, inst.t.rounds),
		Agreed:   agreed,
		Decision: decision,
		Digest:   h.Sum32(),
		Liars:    len(liars),
	}, nil
}

// byzSummary is the canonical one-line summary of the honest outcome that
// ByzOutcome.Digest fingerprints: the lowest-indexed honest party's
// decision. The five spellings are hashed into the committed digest cells
// of BENCH_byz.json, so they are pinned byte for byte.
func byzSummary(ds []*kinds.Decision, agreed bool) string {
	switch d := ds[0]; d.Kind {
	case "coin":
		return fmt.Sprintf("coin bit=%d maxset=%v", d.Bit, allMaxSet(ds))
	case "aba":
		return fmt.Sprintf("aba bit=%d", d.Bit)
	case "vba":
		return fmt.Sprintf("vba value=%q", d.Value)
	case "adkg":
		return fmt.Sprintf("adkg agree=%v contributors=%d", agreed, d.Weight)
	case "election":
		return fmt.Sprintf("election leader=%d default=%v", d.Leader, d.ByDefault)
	default:
		return fmt.Sprintf("%+v", *d.Canonical())
	}
}

// repeat fills a behavior-name slice with k copies of the names, cycling —
// the "f liars, all lying" shape of the boundary specs and the mixed
// nightly sweep.
func repeat(names []string, k int) []string {
	out := make([]string, 0, k)
	for i := 0; i < k; i++ {
		out = append(out, names[i%len(names)])
	}
	return out
}

// byzRun adapts one behavior family into a Spec runner. Beyond reporting
// cost, it enforces the safety-matrix contract inline: honest parties must
// agree (except the α-agreeing coin), the run must terminate within
// budget (wait already failed otherwise), and at least one detection
// counter must have fired — a lying party that nobody caught is a spec
// failure, not a statistic.
func byzRun(protocol string, names ...string) func(RunSpec) (Outcome, error) {
	return func(rs RunSpec) (Outcome, error) {
		out, err := RunByzantine(rs, protocol, repeat(names, rs.faults()))
		if err != nil {
			return Outcome{}, err
		}
		if protocol != "coin" && !out.Agreed {
			return Outcome{}, fmt.Errorf("byz %s run: honest parties disagree (%s)", protocol, out.Decision)
		}
		if out.Stats.Rejected+out.Stats.Equivocations == 0 {
			return Outcome{}, fmt.Errorf("byz %s run: no detection counter fired for %v", protocol, names)
		}
		return Outcome{Stats: out.Stats, Extra: map[string]float64{
			"agreed":        b2f(out.Agreed),
			"digest":        float64(out.Digest),
			"liars":         float64(out.Liars),
			"rejects":       float64(out.Stats.Rejected),
			"equivocations": float64(out.Stats.Equivocations),
		}}, nil
	}
}

// byzViolationRun is the beyond-the-bound probe: f+1 garbage peers at
// once, one past what the protocol tolerates. The spec EXPECTS the run to
// violate liveness — a drained simulator queue with honest parties still
// waiting is the success condition, and termination within budget would
// mean the bound is slack somewhere.
func byzViolationRun(rs RunSpec) (Outcome, error) {
	f := rs.faults()
	out, err := RunByzantine(rs, "vba", repeat([]string{"byz/wire-garbage"}, f+1))
	if err != nil {
		var stall *sim.StallError
		if errors.As(err, &stall) {
			return Outcome{Stats: Stats{N: rs.N, F: f}, Extra: map[string]float64{
				"violated": 1, "liars": float64(f + 1),
			}}, nil
		}
		return Outcome{}, err
	}
	return Outcome{}, fmt.Errorf("byz violation run: f+1=%d garbage peers but VBA still decided (%s)", f+1, out.Decision)
}

func init() {
	byzNs := []int{4, 7}
	sweep := func(protocol, name, title, claim string) {
		Register(Spec{
			Name: name, Group: "byz", Tags: []string{"matrix"},
			Title: title, Claim: claim,
			Ns: byzNs, Trials: 2, Genesis: []byte("byz"),
			Run: byzRun(protocol, name),
		})
	}
	sweep("coin", "byz/avss-equivocate",
		"Coin vs equivocating AVSS dealers", "liveness; bad shares rejected")
	sweep("adkg", "byz/pvss-badshare",
		"ADKG vs bad-share PVSS dealers", "agreement; scripts rejected")
	sweep("adkg", "byz/adkg-forge-sok",
		"ADKG vs forged-SoK contributors", "agreement; scripts rejected")
	sweep("aba", "byz/aba-doublevote",
		"ABA vs double-voting parties", "agreement; equivocations proven")
	sweep("vba", "byz/vba-doublevote",
		"VBA vs equivocating proposers", "agreement; equivocations proven")
	sweep("coin", "byz/coin-lie",
		"Coin vs lying candidate senders", "liveness; candidates rejected")
	sweep("election", "byz/election-lie",
		"Election vs lying coin-share senders", "perfect agreement; rejected")
	sweep("vba", "byz/wire-garbage",
		"VBA vs garbage-on-the-wire peers", "agreement; garbage rejected")

	// Distinct behaviors active simultaneously (the nightly shape: f
	// liars split across strategies once f ≥ 2).
	Register(Spec{
		Name: "byz/mixed", Group: "byz", Tags: []string{"matrix"},
		Title: "VBA vs mixed doublevote+garbage liars", Claim: "agreement under composed lies",
		Ns: byzNs, Trials: 2, Genesis: []byte("byz"),
		Run: byzRun("vba", "byz/vba-doublevote", "byz/wire-garbage"),
	})

	// The boundary proof's other half: one liar past f and the same
	// workload must stall (ExpectViolation — success IS the violation).
	Register(Spec{
		Name: "byz/beyond-bound", Group: "byz",
		Title: "VBA vs f+1 garbage peers", Claim: "liveness violated past the bound",
		Ns: []int{4}, Trials: 1, Genesis: []byte("byz"),
		Run: byzViolationRun,
	})
}
