package exp

// Concurrent-instance runners: N protocol instances multiplexed onto ONE
// long-lived cluster — key setup paid once, instances distinguished by tag,
// interleaved by the (possibly adversarial) scheduler on the simulator and
// truly parallel on the live runtime. This is the session-era experiment
// family: the registry's mux/* specs assert liveness and per-instance
// accounting for workloads like "8 VBAs sharing a 16-party cluster under
// LIFO".

import (
	"context"
	"fmt"

	"repro/internal/kinds"
)

// MuxOutcome reports k concurrent instances that shared one cluster.
type MuxOutcome struct {
	Stats         Stats // cluster-wide totals (single shared network)
	PerInstance   []Stats
	Instances     int
	AllAgreed     bool  // every instance internally agreed
	InstanceBytes int64 // Σ per-instance scoped bytes; ≈ Stats.Bytes when
	// accounting is airtight (no traffic outside instance tags)
}

// runMux executes k concurrent instances of one kind on one shared cluster;
// in(j, i) is party i's input to instance j.
func runMux(spec RunSpec, k int, name string, in func(j, i int) kinds.Input) (MuxOutcome, error) {
	c, err := spec.cluster()
	if err != nil {
		return MuxOutcome{}, err
	}
	insts := make([]*Instance, k)
	for j := range insts {
		insts[j] = launchKnown(c, name, fmt.Sprintf("%s%d", name, j), spec.Genesis,
			func(i int) kinds.Input { return in(j, i) })
	}
	out := MuxOutcome{Instances: k, AllAgreed: true}
	rounds := 0
	for j, inst := range insts {
		if err := inst.Wait(context.Background()); err != nil {
			return MuxOutcome{}, fmt.Errorf("%s mux [%d/%d]: %w", name, j, k, err)
		}
		if !inst.Agreed() {
			out.AllAgreed = false
		}
		st := inst.t.stats()
		out.PerInstance = append(out.PerInstance, st)
		out.InstanceBytes += st.Bytes
		rounds = max(rounds, st.Rounds)
	}
	out.Stats = collectStats(c, rounds)
	return out, nil
}

// RunVBAMux executes k concurrent VBA instances on one shared cluster;
// instance j's party i proposes a distinct valid value, so per-instance
// decisions are independent.
func RunVBAMux(spec RunSpec, k int) (MuxOutcome, error) {
	return runMux(spec, k, "vba", func(j, i int) kinds.Input {
		return kinds.Input{Proposal: []byte(fmt.Sprintf("ok:i%d-p%d", j, i)), Valid: okPrefixed}
	})
}

// RunCoinMux executes k concurrent common coins on one shared cluster.
func RunCoinMux(spec RunSpec, k int) (MuxOutcome, error) {
	return runMux(spec, k, "coin", func(int, int) kinds.Input { return kinds.Input{} })
}

func muxRun(k int, f func(RunSpec, int) (MuxOutcome, error)) func(RunSpec) (Outcome, error) {
	return func(rs RunSpec) (Outcome, error) {
		out, err := f(rs, k)
		if err != nil {
			return Outcome{}, err
		}
		ratio := 0.0
		if out.Stats.Bytes > 0 {
			ratio = float64(out.InstanceBytes) / float64(out.Stats.Bytes)
		}
		return Outcome{Stats: out.Stats, Extra: map[string]float64{
			"all-agreed":  b2f(out.AllAgreed),
			"instances":   float64(out.Instances),
			"bytes-ratio": ratio, // per-instance accounting should sum to ≈ 1× total
		}}, nil
	}
}
