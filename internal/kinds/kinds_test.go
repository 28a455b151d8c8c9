package kinds

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core/aba"
	"repro/internal/core/abc"
	"repro/internal/harness"
	"repro/internal/livenet"
	"repro/internal/order"
)

const (
	testN    = 4
	testSeed = 61
)

var testGenesis = []byte("kinds")

func simCluster(t *testing.T) *harness.Cluster {
	t.Helper()
	c, err := harness.NewCluster(testN, -1, testSeed, harness.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func liveCluster(t *testing.T) *harness.Cluster {
	t.Helper()
	c, err := harness.NewLiveCluster(testN, -1, testSeed, harness.LiveOptions{Transport: livenet.Channels})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// runKind drives one instance of a kind through Lookup and its start
// function on every party of c, calls the returned stop right after the
// start, and returns the decisions in party order.
func runKind(t *testing.T, c *harness.Cluster, name, tag string, in func(i int) Input) []*Decision {
	t.Helper()
	start, err := Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	decs := make([]*Decision, c.N)
	got := 0
	for i := 0; i < c.N; i++ {
		c.Launch(i, func() {
			stop := start(c.Runtime(i), tag, c.Keys[i], testGenesis, in(i), func(d *Decision) {
				c.Update(func() {
					if decs[i] != nil {
						t.Errorf("%s: party %d decided twice", name, i)
					}
					decs[i] = d
					got++
				})
			})
			if stop != nil {
				stop()
			}
		})
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := c.Await(ctx, func() bool { return got == c.N }); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return decs
}

// TestEveryKindOnBothRuntimes runs each table entry at n = 4 on the
// simulator and on livenet Channels. Every party must report a decision of
// the right kind and tag; every kind with an agreement property must have
// all parties Same (the coin is only α-agreeing, so it is exempt); and the
// validity-pinned workloads — a unanimous aba, a vba whose proposals all
// coincide — must decide the same on both runtimes. The election is not in
// that set: its leader depends on which coin shares aggregate first, so a
// concurrent runtime can elect a different one than the simulator (it does
// now and then under the race detector). Nor is the ledger, whose order
// depends on the timing; its committed txs plus every party's leftovers
// must be exactly the parties' preloads.
func TestEveryKindOnBothRuntimes(t *testing.T) {
	none := func(int) Input { return Input{} }
	const txCount, txBytes = 8, 64
	var preload abc.SetDigest
	for i := 0; i < testN; i++ {
		for k := 0; k < txCount; k++ {
			preload.Add(LedgerTx(i, k, txBytes))
		}
	}
	cases := map[string]struct {
		in     func(i int) Input
		pinned bool // the decision is forced by validity, whatever the timing
		check  func(t *testing.T, d *Decision)
		all    func(t *testing.T, decs []*Decision)
	}{
		"coin": {in: none},
		"aba": {
			in:     func(int) Input { return Input{Bit: 1} },
			pinned: true,
			check: func(t *testing.T, d *Decision) {
				if d.Bit != 1 || d.Round < 1 {
					t.Fatalf("unanimous-1 aba decided %+v", d)
				}
			},
		},
		"election": {in: none},
		"vba": {
			in: func(int) Input {
				return Input{Proposal: []byte("ok:pinned"), Valid: func(v []byte) bool { return strings.HasPrefix(string(v), "ok:") }}
			},
			pinned: true,
			check: func(t *testing.T, d *Decision) {
				if d.Value != "ok:pinned" {
					t.Fatalf("pinned vba decided %+v", d)
				}
			},
		},
		"adkg": {
			in: none,
			check: func(t *testing.T, d *Decision) {
				if d.GroupPK == "" || d.Weight < testN-(testN-1)/3 {
					t.Fatalf("adkg decided %+v", d)
				}
			},
		},
		"beacon": {
			in: func(int) Input { return Input{Epochs: 2} },
			check: func(t *testing.T, d *Decision) {
				if len(d.EpochValues) != 2 || len(d.Attempts) != 2 {
					t.Fatalf("2-epoch beacon decided %+v", d)
				}
			},
		},
		"ledger": {
			in: func(int) Input { return Input{TxCount: txCount, TxBytes: txBytes} },
			all: func(t *testing.T, decs []*Decision) {
				sets, txs := []string{decs[0].TxSet}, decs[0].Txs
				for _, d := range decs {
					sets, txs = append(sets, d.LeftoverSet), txs+d.Leftover
				}
				got, err := abc.SumSets(sets...)
				if err != nil || got != preload.String() || txs != testN*txCount {
					t.Fatalf("committed plus leftovers: txs=%d set=%s (%v), want txs=%d set=%s",
						txs, got, err, testN*txCount, preload.String())
				}
			},
		},
	}
	if got, want := order.SortedKeys(cases), order.SortedKeys(table); !reflect.DeepEqual(got, want) {
		t.Fatalf("cases cover %v, the table holds %v", got, want)
	}
	for _, name := range order.SortedKeys(cases) {
		tc := cases[name]
		t.Run(name, func(t *testing.T) {
			var first []*Decision
			for _, c := range []*harness.Cluster{simCluster(t), liveCluster(t)} {
				decs := runKind(t, c, name, "t/"+name, tc.in)
				for i, d := range decs {
					if d.Kind != name || d.Tag != "t/"+name {
						t.Fatalf("party %d: decision %+v labelled wrong", i, d)
					}
					if tc.check != nil {
						tc.check(t, d)
					}
				}
				if name != "coin" && !Agree(decs) {
					t.Fatalf("parties disagree: %+v", decs)
				}
				if tc.all != nil {
					tc.all(t, decs)
				}
				first = append(first, decs[0])
			}
			if tc.pinned && !first[0].Same(first[1]) {
				t.Fatalf("sim decided %+v, livenet %+v", first[0], first[1])
			}
		})
	}
}

func TestLookupUnknownKind(t *testing.T) {
	for _, name := range []string{"", "Coin", "nope"} {
		if start, err := Lookup(name); err == nil || start != nil {
			t.Fatalf("Lookup(%q) = %v, %v; want an error", name, start != nil, err)
		}
	}
}

// TestABAInputCoinsReplacePaperCoins: with Input.Coins set the aba flips
// those coins and builds no paper coin, so nothing travels under tag/c;
// with Coins nil the same split-input run does.
func TestABAInputCoinsReplacePaperCoins(t *testing.T) {
	split := func(coins aba.CoinFactory) func(int) Input {
		return func(i int) Input { return Input{Bit: byte(i % 2), Coins: coins} }
	}
	c := simCluster(t)
	if decs := runKind(t, c, "aba", "own", split(aba.TestCoins("kinds"))); !Agree(decs) {
		t.Fatalf("test-coin aba disagreed: %+v", decs)
	}
	if tl := c.Net.Metrics().Honest.ByPrefix("own/c"); tl.Msgs != 0 {
		t.Fatalf("Input.Coins set, yet %d paper-coin messages under own/c", tl.Msgs)
	}
	if decs := runKind(t, c, "aba", "paper", split(nil)); !Agree(decs) {
		t.Fatalf("paper-coin aba disagreed: %+v", decs)
	}
	if tl := c.Net.Metrics().Honest.ByPrefix("paper/c"); tl.Msgs == 0 {
		t.Fatal("nil Input.Coins, yet no paper-coin traffic under paper/c")
	}
}

// Every Decision field is either part of the agreement output (Same
// compares it, Canonical keeps it) or not (Same ignores it). A new field has
// to be entered in one of the two lists below before this test passes.
var (
	agreementFields = map[string]func(*Decision){
		"Kind":        func(d *Decision) { d.Kind = "other" },
		"Bit":         func(d *Decision) { d.Bit ^= 1 },
		"Leader":      func(d *Decision) { d.Leader++ },
		"ByDefault":   func(d *Decision) { d.ByDefault = !d.ByDefault },
		"Value":       func(d *Decision) { d.Value += "!" },
		"GroupPK":     func(d *Decision) { d.GroupPK += "00" },
		"Weight":      func(d *Decision) { d.Weight++ },
		"EpochValues": func(d *Decision) { d.EpochValues = append([]string{"ff"}, d.EpochValues[1:]...) },
		"FinalSlot":   func(d *Decision) { d.FinalSlot++ },
		"Txs":         func(d *Decision) { d.Txs++ },
		"Bytes":       func(d *Decision) { d.Bytes++ },
		"TxSet":       func(d *Decision) { d.TxSet += "00" },
	}
	ignoredFields = map[string]func(*Decision){
		"Tag":         func(d *Decision) { d.Tag += "/x" },
		"Round":       func(d *Decision) { d.Round++ },
		"View":        func(d *Decision) { d.View++ },
		"Attempts":    func(d *Decision) { d.Attempts = []int{9, 9} },
		"MaxSet":      func(d *Decision) { d.MaxSet = !d.MaxSet },
		"Leftover":    func(d *Decision) { d.Leftover++ },
		"LeftoverSet": func(d *Decision) { d.LeftoverSet += "00" },
	}
)

func fullDecision() *Decision {
	return &Decision{
		Kind: "k", Tag: "t", Bit: 1, MaxSet: true, Round: 2, Leader: 3, ByDefault: true,
		Value: "v", View: 4, GroupPK: "ab", Weight: 5,
		EpochValues: []string{"01", "02"}, Attempts: []int{1, 2},
		FinalSlot: 6, Txs: 7, Bytes: 8, TxSet: "cd", Leftover: 9, LeftoverSet: "ef",
	}
}

func TestSameComparesTheAgreementFieldsOnly(t *testing.T) {
	typ := reflect.TypeOf(Decision{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		_, agreed := agreementFields[name]
		_, ignored := ignoredFields[name]
		if agreed == ignored {
			t.Errorf("Decision.%s: agreement=%v ignored=%v, want exactly one", name, agreed, ignored)
		}
	}
	if len(agreementFields)+len(ignoredFields) != typ.NumField() {
		t.Errorf("lists name %d fields, Decision has %d", len(agreementFields)+len(ignoredFields), typ.NumField())
	}
	ref := fullDecision()
	if !ref.Same(fullDecision()) {
		t.Fatal("a decision is not Same as its copy")
	}
	for _, name := range order.SortedKeys(agreementFields) {
		d := fullDecision()
		agreementFields[name](d)
		if ref.Same(d) || d.Same(ref) {
			t.Errorf("flipping %s does not break Same", name)
		}
	}
	for _, name := range order.SortedKeys(ignoredFields) {
		d := fullDecision()
		ignoredFields[name](d)
		if !ref.Same(d) || !d.Same(ref) {
			t.Errorf("flipping %s breaks Same", name)
		}
	}
	var none *Decision
	if !none.Same(nil) || none.Same(ref) || ref.Same(nil) {
		t.Error("nil decisions: only nil is Same as nil")
	}
	if !Agree(nil) || !Agree([]*Decision{ref}) || !Agree([]*Decision{ref, fullDecision()}) {
		t.Error("Agree rejects an empty, single or identical set")
	}
	other := fullDecision()
	other.Bit = 0
	if Agree([]*Decision{ref, fullDecision(), other}) {
		t.Error("Agree accepts a set with a differing decision")
	}
}

// TestCanonicalClearsThePerPartyObservations: Canonical drops exactly Round,
// View, Attempts, MaxSet and the leftovers — the tag stays, committed
// artifacts store it —
// and leaves the receiver untouched.
func TestCanonicalClearsThePerPartyObservations(t *testing.T) {
	d := fullDecision()
	c := d.Canonical()
	want := fullDecision()
	want.Round, want.View, want.Attempts, want.MaxSet = 0, 0, nil, false
	want.Leftover, want.LeftoverSet = 0, ""
	if !reflect.DeepEqual(c, want) {
		t.Fatalf("Canonical() = %+v, want %+v", c, want)
	}
	if !reflect.DeepEqual(d, fullDecision()) {
		t.Fatalf("Canonical modified its receiver: %+v", d)
	}
	if !c.Same(d) {
		t.Fatal("a decision is not Same as its canonical form")
	}
}
