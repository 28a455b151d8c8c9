package exp

import (
	"fmt"

	"repro/internal/core/rbc"
	"repro/internal/harness"
	"repro/internal/wire"
)

// RunRBCGather measures the classical CR93-style core-set gather that the
// paper's WCS replaces (§5.2: "Selecting a core-set out of n broadcasted
// values requires another 2n reliable broadcasts"): every party reliably
// broadcasts its completion set (wave 1) and, after accepting n−f of them,
// reliably broadcasts its accepted-set indices (wave 2); the gather
// completes on n−f wave-2 deliveries. Comparing with RunWCS quantifies the
// claim that two multicast rounds plus signatures beat 2n reliable
// broadcasts: ~n³ messages and twice the rounds collapse to ~n² messages
// and 3 rounds.
func RunRBCGather(spec RunSpec) (Stats, error) {
	quorum := spec.N - spec.faults()
	set := map[int]bool{}
	for j := 0; j < quorum; j++ {
		set[j] = true
	}
	var w wire.Writer
	w.BitSet(set, spec.N)
	payload := w.Bytes()

	c, t, err := runParties(spec, "g", func(c *harness.Cluster, t *tracker, i int) func() {
		wave1, wave2 := make([]*rbc.RBC, c.N), make([]*rbc.RBC, c.N)
		got1, got2 := 0, 0
		for j := 0; j < c.N; j++ {
			wave1[j] = rbc.New(c.Runtime(i), fmt.Sprintf("g1/%d", j), j, func([]byte) {
				if got1++; got1 == quorum {
					wave2[i].Start(payload)
				}
			})
			wave2[j] = rbc.New(c.Runtime(i), fmt.Sprintf("g2/%d", j), j, func([]byte) {
				if got2++; got2 == quorum {
					t.report(i)
				}
			})
		}
		return func() { wave1[i].Start(payload) }
	})
	if err != nil {
		return Stats{}, fmt.Errorf("rbc gather: %w", err)
	}
	return collectStats(c, t.rounds), nil
}
