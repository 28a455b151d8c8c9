package repro

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"
)

// TestClusterStatsCarriesRSOps: Cluster.Stats used to hand-copy the cluster
// counters and forgot RSOps — it read 0 after a ledger run that drove a
// hundred codec operations. Both public Stats values now come from one
// filler, so after a ledger of a dozen transactions and a key generation
// the cluster-level value carries every counter an instance-level one does.
func TestClusterStatsCarriesRSOps(t *testing.T) {
	c, err := NewCluster(4, WithSeed(103), WithGenesisNonce([]byte("stats")))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	l, err := c.NewLedger("log", WithBatchBytes(64))
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 12; q++ {
		if err := l.Submit(ctx, []byte(fmt.Sprintf("stats-tx-%02d", q))); err != nil {
			t.Fatalf("submit %d: %v", q, err)
		}
	}
	go drainLedger(t, l)
	if _, err := l.Stop(ctx); err != nil {
		t.Fatalf("stop: %v", err)
	}
	if ops := c.Stats().RSOps; ops <= 0 {
		t.Fatalf("cluster RSOps = %d after a ledger run, want > 0", ops)
	}

	h, err := c.GenerateKey("dkg")
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Verifies == 0 || res.Stats.ScriptVerifies == 0 || res.Stats.RSOps == 0 {
		t.Fatalf("instance stats %+v: the run should have driven every crypto counter", res.Stats)
	}
	// Every scalar counter is cumulative and the cluster value is read
	// later, so it can only be at or above the instance's snapshot.
	inst, all := reflect.ValueOf(res.Stats), reflect.ValueOf(c.Stats())
	for i := 0; i < inst.NumField(); i++ {
		if name := inst.Type().Field(i).Name; inst.Field(i).CanInt() && name != "Rounds" {
			if iv, cv := inst.Field(i).Int(), all.Field(i).Int(); cv < iv {
				t.Errorf("Stats.%s: %d at cluster level, %d in the instance result", name, cv, iv)
			}
		}
	}
}
