package exp

// The Byzantine safety matrix: every registered adversary behavior runs
// against its protocol and must leave honest safety intact, terminate
// within the delivery budget, and trip a detection counter. The boundary
// tests prove the f=⌊(n−1)/3⌋ bound from both sides — every behavior
// passes at f liars, and one documented ExpectViolation case shows the
// same workload degrade at f+1.

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core/aba"
	"repro/internal/core/abc"
	"repro/internal/core/adkg"
	"repro/internal/core/avss"
	"repro/internal/core/coin"
	"repro/internal/core/vba"
	"repro/internal/kinds"
	"repro/internal/sim"
)

// byzSeed keeps the matrix deterministic and distinct from other suites.
const byzSeed = 0xb12a

// TestByzantineMatrix is the CI-gated matrix: every registered behavior at
// n=4 (f=1). Each behavior's spec wrapper already enforces agreement,
// liveness and nonzero detection; here we additionally pin the evidence
// kind — double votes must yield provable equivocations, not just
// rejected garbage.
func TestByzantineMatrix(t *testing.T) {
	for _, name := range adversary.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			b, _ := adversary.Lookup(name)
			out, err := RunByzantine(
				RunSpec{N: 4, F: -1, Seed: byzSeed, Genesis: []byte("byz")},
				b.Protocol, []string{name})
			if err != nil {
				t.Fatalf("behavior %s: %v", name, err)
			}
			if b.Protocol != "coin" && !out.Agreed {
				t.Fatalf("behavior %s: honest parties disagree (%s)", name, out.Decision)
			}
			if out.Stats.Rejected+out.Stats.Equivocations == 0 {
				t.Fatalf("behavior %s: lied undetected", name)
			}
			if strings.Contains(name, "doublevote") && out.Stats.Equivocations == 0 {
				t.Fatalf("behavior %s: double votes produced no equivocation evidence (rejected=%d)",
					name, out.Stats.Rejected)
			}
			t.Logf("%s: %s rejected=%d equivocations=%d",
				name, out.Decision, out.Stats.Rejected, out.Stats.Equivocations)
		})
	}
}

// TestByzantineHonestBaseline pins the detection counters' zero point:
// a fully honest run of every byz workload records no rejections and no
// equivocations, so anything nonzero in the matrix is attributable to the
// lying parties alone. Each workload runs with the genesis nonce (as the
// byz specs do) and without it, where every coin runs Seeding and WCS.
func TestByzantineHonestBaseline(t *testing.T) {
	for _, protocol := range []string{"coin", "aba", "vba", "adkg", "election"} {
		for _, genesis := range byzGenesis {
			out, err := RunByzantine(
				RunSpec{N: 4, F: -1, Seed: byzSeed, Genesis: genesis},
				protocol, nil)
			if err != nil {
				t.Fatalf("honest %s (genesis %q): %v", protocol, genesis, err)
			}
			if out.Stats.Rejected != 0 || out.Stats.Equivocations != 0 {
				t.Fatalf("honest %s (genesis %q): spurious detection rejected=%d equivocations=%d",
					protocol, genesis, out.Stats.Rejected, out.Stats.Equivocations)
			}
		}
	}
}

// byzGenesis is the genesis nonce the byz specs pass, then none: without
// it each coin runs the paper's Seeding and WCS on its receipt paths.
var byzGenesis = [][]byte{[]byte("byz"), nil}

// TestByzantineBoundary proves the positive half of the bound at n=7:
// f=2 parties all running the same behavior, and the honest majority
// still agrees, terminates and detects. Skipped under -short (the n=4
// matrix covers the same contract at f=1).
func TestByzantineBoundary(t *testing.T) {
	if testing.Short() {
		t.Skip("n=7 boundary sweep runs in the nightly matrix")
	}
	for _, name := range adversary.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			b, _ := adversary.Lookup(name)
			out, err := RunByzantine(
				RunSpec{N: 7, F: -1, Seed: byzSeed, Genesis: []byte("byz")},
				b.Protocol, []string{name, name})
			if err != nil {
				t.Fatalf("behavior %s at f=2: %v", name, err)
			}
			if b.Protocol != "coin" && !out.Agreed {
				t.Fatalf("behavior %s at f=2: honest parties disagree (%s)", name, out.Decision)
			}
			if out.Stats.Rejected+out.Stats.Equivocations == 0 {
				t.Fatalf("behavior %s at f=2: lied undetected", name)
			}
		})
	}
}

// TestByzantineBeyondBound is the documented ExpectViolation case: f+1
// garbage peers exceed what any of the protocols tolerate, and the run
// must stall (drained queue, honest parties still waiting) instead of
// deciding. A decision here would mean the f-bound is slack.
func TestByzantineBeyondBound(t *testing.T) {
	ns := []int{4}
	if !testing.Short() {
		ns = append(ns, 7)
	}
	for _, n := range ns {
		f := (n - 1) / 3
		liars := repeat([]string{"byz/wire-garbage"}, f+1)
		out, err := RunByzantine(
			RunSpec{N: n, F: -1, Seed: byzSeed, Genesis: []byte("byz")},
			"vba", liars)
		if err == nil {
			t.Fatalf("n=%d: VBA decided despite f+1=%d garbage peers (%s)", n, f+1, out.Decision)
		}
		var stall *sim.StallError
		if !errors.As(err, &stall) {
			t.Fatalf("n=%d: expected a liveness stall, got: %v", n, err)
		}
	}
}

// TestByzantineDeterminism replays one lying run: same seed, bit-identical
// honest decisions and detection counters. This is what makes a Byzantine
// CI failure reproducible from its seed alone.
func TestByzantineDeterminism(t *testing.T) {
	run := func() ByzOutcome {
		out, err := RunByzantine(
			RunSpec{N: 4, F: -1, Seed: byzSeed, Genesis: []byte("byz")},
			"vba", []string{"byz/vba-doublevote"})
		if err != nil {
			t.Fatalf("replay run: %v", err)
		}
		return out
	}
	a, b := run(), run()
	if a.Digest != b.Digest || a.Decision != b.Decision {
		t.Fatalf("decisions diverged across replays: %q vs %q", a.Decision, b.Decision)
	}
	if a.Stats.Rejected != b.Stats.Rejected || a.Stats.Equivocations != b.Stats.Equivocations {
		t.Fatalf("detection counters diverged: (%d,%d) vs (%d,%d)",
			a.Stats.Rejected, a.Stats.Equivocations, b.Stats.Rejected, b.Stats.Equivocations)
	}
	if a.Stats.Msgs != b.Stats.Msgs || a.Stats.Bytes != b.Stats.Bytes {
		t.Fatalf("honest traffic diverged: (%d,%d) vs (%d,%d)",
			a.Stats.Msgs, a.Stats.Bytes, b.Stats.Msgs, b.Stats.Bytes)
	}
}

// TestByzantineSchedComposition stacks an adversarial scheduler on top of
// a lying party — the registry composes with the sched layer the same way
// crash profiles always have.
func TestByzantineSchedComposition(t *testing.T) {
	for _, sched := range []string{"lifo", "partition"} {
		sched := sched
		t.Run(sched, func(t *testing.T) {
			fac, err := NamedSched(sched)
			if err != nil {
				t.Fatal(err)
			}
			out, rerr := RunByzantine(
				RunSpec{N: 4, F: -1, Seed: byzSeed, Genesis: []byte("byz"), Sched: fac(4, byzSeed)},
				"aba", []string{"byz/aba-doublevote"})
			if rerr != nil {
				t.Fatalf("aba-doublevote under %s: %v", sched, rerr)
			}
			if !out.Agreed {
				t.Fatalf("aba-doublevote under %s: disagreement (%s)", sched, out.Decision)
			}
			if out.Stats.Equivocations == 0 {
				t.Fatalf("aba-doublevote under %s: no equivocation evidence", sched)
			}
		})
	}
}

// TestByzantineCrashComposition runs a liar and a crashed party side by
// side at n=7 (f=2 total corruptions: one lying, one silent), the mixed
// fault shape real deployments see.
func TestByzantineCrashComposition(t *testing.T) {
	if testing.Short() {
		t.Skip("n=7 composition runs in the nightly matrix")
	}
	out, err := RunByzantine(
		RunSpec{N: 7, F: -1, Seed: byzSeed, Genesis: []byte("byz"), Crash: 1},
		"vba", []string{"byz/vba-doublevote"})
	if err != nil {
		t.Fatalf("liar+crash: %v", err)
	}
	if !out.Agreed {
		t.Fatalf("liar+crash: disagreement (%s)", out.Decision)
	}
	if out.Stats.Equivocations == 0 {
		t.Fatal("liar+crash: no equivocation evidence")
	}
}

// TestByzantineGarbageAllProtocols is the receipt-path audit the
// garbage-peer behavior exists for: every protocol's full decode surface
// fed in-protocol adversarial bytes, with several seeds so the four
// mutation modes land on different messages, with and without the genesis
// nonce so Seeding's handlers are fed too. Any panic here is a wire
// hardening bug; its reproducer belongs in the FuzzWireReader corpus.
func TestByzantineGarbageAllProtocols(t *testing.T) {
	seeds := []int64{byzSeed, byzSeed + 1}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, protocol := range []string{"coin", "aba", "vba", "adkg", "election"} {
		protocol := protocol
		t.Run(protocol, func(t *testing.T) {
			for _, seed := range seeds {
				for _, genesis := range byzGenesis {
					out, err := RunByzantine(
						RunSpec{N: 4, F: -1, Seed: seed, Genesis: genesis},
						protocol, []string{"byz/wire-garbage"})
					if err != nil {
						t.Fatalf("garbage peer vs %s (seed %d, genesis %q): %v", protocol, seed, genesis, err)
					}
					if protocol != "coin" && !out.Agreed {
						t.Fatalf("garbage peer vs %s (seed %d, genesis %q): disagreement (%s)",
							protocol, seed, genesis, out.Decision)
					}
					if out.Stats.Rejected == 0 {
						t.Fatalf("garbage peer vs %s (seed %d, genesis %q): nothing rejected", protocol, seed, genesis)
					}
				}
			}
		})
	}
}

// TestByzantineLedger runs the ledger kind against f garbage peers at
// n = 4 and 7. The liars preload and stop like the honest parties but
// mangle every message they send, so none of their batches commits: the
// honest parties must agree, their committed txs plus their leftovers must
// be exactly the honest preloads, and the garbage must be rejected.
func TestByzantineLedger(t *testing.T) {
	for _, n := range []int{4, 7} {
		f := (n - 1) / 3
		var want abc.SetDigest
		for i := 0; i < n-f; i++ {
			for k := 0; k < byzTxCount; k++ {
				want.Add(kinds.LedgerTx(i, k, byzTxBytes))
			}
		}
		out, err := RunByzantine(RunSpec{N: n, F: -1, Seed: byzSeed, Genesis: []byte("byz")},
			"ledger", repeat([]string{"byz/wire-garbage"}, f))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !out.Agreed {
			t.Fatalf("n=%d: honest parties disagree (%s)", n, out.Decision)
		}
		decs := out.Decisions
		sets, txs := []string{decs[0].TxSet}, decs[0].Txs
		for _, d := range decs {
			sets, txs = append(sets, d.LeftoverSet), txs+d.Leftover
		}
		got, err := abc.SumSets(sets...)
		if err != nil || got != want.String() || txs != (n-f)*byzTxCount {
			t.Fatalf("n=%d: committed plus honest leftovers txs=%d set=%s (%v), want txs=%d set=%s",
				n, txs, got, err, (n-f)*byzTxCount, want.String())
		}
		if out.Stats.Rejected+out.Stats.Equivocations == 0 {
			t.Fatalf("n=%d: %d garbage peers, nothing detected", n, f)
		}
		t.Logf("n=%d: committed %d txs, %d left over, rejected=%d",
			n, decs[0].Txs, txs-decs[0].Txs, out.Stats.Rejected)
	}
}

// TestCodecsAreTheFormat pins that each codec the behaviors lie through
// is the wire format its package sends: a pass-through behavior records
// every outbound message of the last party, every recorded body on a
// codec's instance paths that the codec decodes re-encodes to the same
// bytes, and every message kind the codec covers goes out at least once.
func TestCodecsAreTheFormat(t *testing.T) {
	type sent struct {
		inst string
		body []byte
	}
	cases := []struct {
		codec, protocol string
		path            func(inst string) bool
		kinds           []string
		// again re-encodes a decoded body and names its kind.
		again func(body []byte) (enc []byte, kind string, ok bool)
	}{{
		codec: "aba.Msg", protocol: "aba",
		path:  func(inst string) bool { return inst == "byz" },
		kinds: []string{"EST1", "AUX1", "EST2", "AUX2", "FINISH"},
		again: func(body []byte) ([]byte, string, bool) {
			m, ok := aba.DecodeMsg(body)
			kind := fmt.Sprintf("EST%d", m.Stage+1)
			switch {
			case m.Finish:
				kind = "FINISH"
			case m.AUX:
				kind = fmt.Sprintf("AUX%d", m.Stage+1)
			}
			return m.Bytes(), kind, ok
		},
	}, {
		codec: "vba.PBSend", protocol: "vba",
		path:  func(inst string) bool { return inst == "byz" },
		kinds: []string{"stage 1", "stage 1 keyed", "stage 2", "stage 3", "stage 4"},
		again: func(body []byte) ([]byte, string, bool) {
			m, ok := vba.DecodePBSend(body, 4)
			kind := fmt.Sprintf("stage %d", m.Stage)
			if m.Key != nil {
				kind += " keyed"
			}
			return m.Bytes(), kind, ok
		},
	}, {
		codec: "avss.KeyShare", protocol: "coin",
		path:  func(inst string) bool { return strings.Contains(inst, "/av/") },
		kinds: []string{"KeyShare"},
		again: func(body []byte) ([]byte, string, bool) {
			k, ok := avss.DecodeKeyShare(body)
			return k.Bytes(), "KeyShare", ok
		},
	}, {
		codec: "coin.Candidate", protocol: "coin",
		path:  func(inst string) bool { return strings.HasSuffix(inst, "/cd") },
		kinds: []string{"candidate"},
		again: func(body []byte) ([]byte, string, bool) {
			c, ok := coin.DecodeCandidate(body, 4)
			return c.Bytes(), "candidate", ok && c != nil
		},
	}, {
		codec: "adkg Contribution", protocol: "adkg",
		path:  func(inst string) bool { return inst == "byz" },
		kinds: []string{"Contribution"},
		again: func(body []byte) ([]byte, string, bool) {
			s, ok := adkg.DecodeContribution(body, 4, 1)
			if !ok {
				return nil, "", false
			}
			return adkg.EncodeContribution(s), "Contribution", true
		},
	}}
	recorded := map[string][]sent{}
	for _, c := range cases {
		if _, done := recorded[c.protocol]; done {
			continue
		}
		var log []sent
		record := adversary.Behavior{
			Name: "test/record", Protocol: c.protocol,
			Mutate: func(_ *adversary.Env, inst string, _ int, body []byte) [][]byte {
				log = append(log, sent{inst, append([]byte(nil), body...)})
				return [][]byte{body}
			},
		}
		if _, err := runByzantine(RunSpec{N: 4, F: -1, Seed: byzSeed, Genesis: []byte("byz")},
			c.protocol, []adversary.Behavior{record}); err != nil {
			t.Fatalf("%s run: %v", c.protocol, err)
		}
		recorded[c.protocol] = log
	}
	for _, c := range cases {
		seen := map[string]int{}
		for _, m := range recorded[c.protocol] {
			if !c.path(m.inst) {
				continue
			}
			enc, kind, ok := c.again(m.body)
			if !ok {
				continue
			}
			if !bytes.Equal(enc, m.body) {
				t.Errorf("%s: %s body on %s re-encodes to %x, sent %x", c.codec, kind, m.inst, enc, m.body)
			}
			seen[kind]++
		}
		t.Logf("%s: %v", c.codec, seen)
		for _, kind := range c.kinds {
			if seen[kind] == 0 {
				t.Errorf("%s: no %s sent (decoded %v)", c.codec, kind, seen)
			}
		}
	}
}
