package exp

import (
	"context"
	"testing"

	"repro/internal/core/abc"
	"repro/internal/harness"
)

// sigVerifies sums the Schnorr signatures every party of c verified
// cryptographically, i.e. its signature book's misses.
func sigVerifies(c *harness.Cluster) int64 {
	var total int64
	for _, k := range c.Keys {
		total += k.SigVerifies()
	}
	return total
}

// TestSigBookVerifyBudget guards the per-party signature book: a party
// never verifies a signature it made or has already checked. Without the
// book, abc/pipe-b256 at n = 4 verifies 2,816 quorum signatures over seeds
// 1–2 and e1/coin-genesis 176; 42.7 % of the former were a party's own
// signature or a repeat. Measured with the book: exactly the budgets.
func TestSigBookVerifyBudget(t *testing.T) {
	const n = 4
	abcSpec, ok1 := Lookup("abc/pipe-b256")
	coinSpec, ok2 := Lookup("e1/coin-genesis")
	if !ok1 || !ok2 {
		t.Fatal("spec not registered")
	}
	var abcN, coin int64
	for seed := int64(1); seed <= 2; seed++ {
		rs := abcSpec.RunSpec(n, seed) // RunABC, keeping the cluster
		c, err := rs.cluster()
		if err != nil {
			t.Fatal(err)
		}
		ai := LaunchABC(c, "abc", abc.EngineConfig{
			Coin: rs.coinCfg(), BatchBytes: abcAcceptSpec.BatchBytes, MaxSlots: abcAcceptSpec.Slots,
		}, preloadPools(c, abcAcceptSpec))
		if err := ai.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		abcN += sigVerifies(c)
		inst, err := run(coinSpec.RunSpec(n, seed), "coin", "coin", nil)
		if err != nil {
			t.Fatal(err)
		}
		coin += sigVerifies(inst.t.c)
	}
	for _, c := range []struct {
		name        string
		got, budget int64
	}{
		{"abc/pipe-b256", abcN, 1613},
		{"e1/coin-genesis", coin, 104},
	} {
		t.Logf("%s: %d cold signature verifications", c.name, c.got)
		if c.got > c.budget {
			t.Errorf("%s at n = %d, seeds 1–2: %d cold signature verifications, budget %d — the signature book regressed",
				c.name, n, c.got, c.budget)
		}
		if c.got == 0 {
			t.Errorf("%s: no signature verified — the counter is not wired", c.name)
		}
	}
}
