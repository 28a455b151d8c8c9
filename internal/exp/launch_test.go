package exp

import (
	"testing"

	"repro/internal/harness"
	"repro/internal/kinds"
)

// heldInstance is an Instance that already holds the given decisions, one
// per party of a fresh 4-party simulated cluster — what Wait leaves behind,
// without running a protocol.
func heldInstance(t *testing.T, decs ...*kinds.Decision) *Instance {
	t.Helper()
	c, err := harness.NewCluster(len(decs), -1, 1, harness.Options{})
	if err != nil {
		t.Fatal(err)
	}
	inst := newInstance(c, "held")
	for i, d := range decs {
		inst.record(i)(d)
	}
	return inst
}

// TestOutcomesReportLowestIndexedHonestParty: when honest parties
// legitimately differ (the coin is only α-agreeing) "the" reported value is
// party 0's on every call — it used to be whichever entry Go's map iteration
// yielded first, and byz hashes it into BENCH_byz.json's digest cells.
func TestOutcomesReportLowestIndexedHonestParty(t *testing.T) {
	coin := heldInstance(t,
		&kinds.Decision{Kind: "coin", Bit: 1, MaxSet: true},
		&kinds.Decision{Kind: "coin", Bit: 0, MaxSet: true},
		&kinds.Decision{Kind: "coin", Bit: 0, MaxSet: true},
		&kinds.Decision{Kind: "coin", Bit: 0})
	election := heldInstance(t,
		&kinds.Decision{Kind: "election", Leader: 3},
		&kinds.Decision{Kind: "election", Leader: 1},
		&kinds.Decision{Kind: "election", Leader: 1},
		&kinds.Decision{Kind: "election", ByDefault: true})
	adkg := heldInstance(t,
		&kinds.Decision{Kind: "adkg", GroupPK: "aa", Weight: 4},
		&kinds.Decision{Kind: "adkg", GroupPK: "bb", Weight: 3},
		&kinds.Decision{Kind: "adkg", GroupPK: "bb", Weight: 3},
		&kinds.Decision{Kind: "adkg", GroupPK: "bb", Weight: 3})
	beacon := heldInstance(t,
		&kinds.Decision{Kind: "beacon", EpochValues: []string{"0a000000000000000000000000000000"}, Attempts: []int{3}},
		&kinds.Decision{Kind: "beacon", EpochValues: []string{"0b000000000000000000000000000000"}, Attempts: []int{1}},
		&kinds.Decision{Kind: "beacon", EpochValues: []string{"0b000000000000000000000000000000"}, Attempts: []int{1}},
		&kinds.Decision{Kind: "beacon", EpochValues: []string{"0b000000000000000000000000000000"}, Attempts: []int{1}})
	for call := 0; call < 64; call++ {
		if o := (CoinInstance{coin}).Outcome(); o.Bit != 1 || o.Agreed || o.MaxIsSet {
			t.Fatalf("call %d: coin outcome %+v, want party 0's bit 1, disagreement, a ⊥ max", call, o)
		}
		if o := (ElectionInstance{election}).Outcome(); o.Leader != 3 || o.ByDefault || o.Agreed {
			t.Fatalf("call %d: election outcome %+v, want party 0's leader 3", call, o)
		}
		if o := (ADKGInstance{adkg}).Outcome(); o.Contributors != 4 || o.KeysAgree {
			t.Fatalf("call %d: adkg outcome %+v, want party 0's 4 contributors", call, o)
		}
		if o := (BeaconInstance{beacon}).Outcome(); len(o.Values) != 1 || o.Values[0][0] != 0x0a || o.MeanAttempt != 3 || o.Agreed {
			t.Fatalf("call %d: beacon outcome %+v, want party 0's value and attempts", call, o)
		}
	}
}

// TestOutcomeFoldsPerPartyObservations: the agreed value comes from party 0,
// the round and view figures from a fold over every honest party.
func TestOutcomeFoldsPerPartyObservations(t *testing.T) {
	aba := heldInstance(t,
		&kinds.Decision{Kind: "aba", Bit: 1, Round: 1},
		&kinds.Decision{Kind: "aba", Bit: 1, Round: 4},
		&kinds.Decision{Kind: "aba", Bit: 1, Round: 2},
		&kinds.Decision{Kind: "aba", Bit: 1, Round: 1})
	if o := (ABAInstance{aba}).Outcome(); !o.Agreed || o.Bit != 1 || o.MaxRound != 4 || o.MeanRound != 2 {
		t.Fatalf("aba outcome %+v, want bit 1, max round 4, mean round 2", o)
	}
	vba := heldInstance(t,
		&kinds.Decision{Kind: "vba", Value: "ok:v", View: 1},
		&kinds.Decision{Kind: "vba", Value: "ok:v", View: 3},
		&kinds.Decision{Kind: "vba", Value: "ok:v", View: 2},
		&kinds.Decision{Kind: "vba", Value: "ok:v", View: 1})
	if o := (VBAInstance{vba}).Outcome(); !o.Agreed || string(o.Value) != "ok:v" || o.MaxView != 3 {
		t.Fatalf("vba outcome %+v, want value ok:v, max view 3", o)
	}
}

func TestLaunchUnknownKindIsAnError(t *testing.T) {
	c, err := harness.NewCluster(4, -1, 1, harness.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if inst, err := Launch(c, "nope", "x", nil, nil); err == nil || inst != nil {
		t.Fatalf("Launch of an unknown kind returned %v, %v", inst, err)
	}
	if _, err := RunByzantine(RunSpec{N: 4, F: -1, Seed: 1}, "nope", []string{"byz/wire-garbage"}); err == nil {
		t.Fatal("RunByzantine accepted an unknown protocol")
	}
}

// TestByzSummaryStrings pins the five summary spellings: they are hashed
// into the digest cells of BENCH_byz.json, where a drift would otherwise
// show up only as a changed number.
func TestByzSummaryStrings(t *testing.T) {
	for _, tc := range []struct {
		ds     []*kinds.Decision
		agreed bool
		want   string
	}{
		{[]*kinds.Decision{{Kind: "coin", Bit: 1, MaxSet: true}, {Kind: "coin", MaxSet: true}}, false, "coin bit=1 maxset=true"},
		{[]*kinds.Decision{{Kind: "coin", MaxSet: true}, {Kind: "coin"}}, true, "coin bit=0 maxset=false"},
		{[]*kinds.Decision{{Kind: "aba", Bit: 1, Round: 3}}, true, "aba bit=1"},
		{[]*kinds.Decision{{Kind: "vba", Value: "ok:p2\x00\"", View: 2}}, true, `vba value="ok:p2\x00\""`},
		{[]*kinds.Decision{{Kind: "adkg", GroupPK: "ab", Weight: 3}}, true, "adkg agree=true contributors=3"},
		{[]*kinds.Decision{{Kind: "adkg", GroupPK: "ab", Weight: 4}}, false, "adkg agree=false contributors=4"},
		{[]*kinds.Decision{{Kind: "election", Leader: 2}}, true, "election leader=2 default=false"},
		{[]*kinds.Decision{{Kind: "election", ByDefault: true}}, true, "election leader=0 default=true"},
	} {
		if got := byzSummary(tc.ds, tc.agreed); got != tc.want {
			t.Errorf("byzSummary(%+v, %v) = %q, want %q", *tc.ds[0], tc.agreed, got, tc.want)
		}
	}
}
