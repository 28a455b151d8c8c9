package noded

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"

	"repro/internal/pki"
)

// fuzzConfigSeed builds one fully valid daemon config (real key material
// for a 4-party cluster) to anchor the corpus in realistic input.
func fuzzConfigSeed(tb testing.TB) []byte {
	tb.Helper()
	rings, _, err := pki.Setup(4, rand.New(rand.NewSource(1)))
	if err != nil {
		tb.Fatal(err)
	}
	peers := []string{"127.0.0.1:9001", "127.0.0.1:9002", "127.0.0.1:9003", "127.0.0.1:9004"}
	raw, err := json.MarshalIndent(&Config{
		N: 4, F: 1, Seed: 42,
		Listen: "127.0.0.1:0", Control: "127.0.0.1:0",
		Peers: peers,
		Keys:  rings[2].Config(),
	}, "", "  ")
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// FuzzNodedConfig feeds arbitrary bytes through the daemon config decode
// path — JSON parse, shape validation, duration derivation, and the full
// keyring reconstruction (hex → curve/group decode → board-slot integrity
// check). A daemon booting from a corrupt or hostile config file must
// reject it with an error, never panic.
func FuzzNodedConfig(f *testing.F) {
	valid := fuzzConfigSeed(f)
	f.Add(valid)
	f.Add([]byte(`{"n":4,"f":1,"peers":["a","b","c","d"]}`)) // no keys
	f.Add([]byte(`{"n":-1}`))
	f.Add([]byte(`{`))
	// A structurally valid config whose key hex is corrupted.
	f.Add([]byte(string(valid[:len(valid)/2]) + string(valid[len(valid)/2:])[1:]))

	f.Fuzz(func(t *testing.T, data []byte) {
		var c Config
		if err := json.Unmarshal(data, &c); err != nil {
			return
		}
		if err := c.validate(); err != nil {
			return
		}
		_ = c.awaitTimeout()
		_ = c.drainTimeout()
		// validate() guarantees Keys != nil; decoding must error out on
		// tampered material, not panic.
		_, _ = c.Keys.Keyring()
	})
}

// FuzzControlRPCDecode feeds arbitrary bytes through the control-plane
// request decode path: one newline-JSON line into a Request, named
// predicate resolution, and predicate evaluation against the (equally
// attacker-chosen) input payload. Anything a launcher — or anything else
// that reaches the control port — sends must decode or fail cleanly, and a
// decoded request must survive a marshal round trip unchanged.
func FuzzControlRPCDecode(f *testing.F) {
	seeds := []Request{
		{Op: OpPing},
		{Op: OpLaunch, Kind: "ledger", Tag: "ledger/0", TxCount: 8, TxBytes: 64, BatchBytes: 1024, MaxInFlight: 2},
		{Op: OpLaunch, Kind: "vba", Tag: "vba/1", Input: []byte("proposal-a"), Predicate: "prefix:proposal"},
		{Op: OpLaunch, Kind: "beacon", Tag: "beacon/0", Epochs: 3},
		{Op: OpAwait, Tag: "ledger/0", TimeoutMS: 1000},
		{Op: OpSever, To: 2},
		{Op: OpStats},
		{Op: OpStop},
	}
	for _, r := range seeds {
		raw, err := json.Marshal(&r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte(`{"op":"launch","predicate":"bogus:x"}`))
	f.Add([]byte(`not json at all`))

	f.Fuzz(func(t *testing.T, line []byte) {
		var req Request
		if err := json.Unmarshal(line, &req); err != nil {
			return
		}
		pred, err := PredicateByName(req.Predicate)
		if err == nil {
			_ = pred(req.Input)
		}
		// Canonical re-encoding must be a fixed point. (Field-level
		// DeepEqual is deliberately not asserted: omitempty canonicalizes
		// `"input":""` — an empty-but-present payload — to an absent key,
		// so empty and nil byte slices legitimately converge.)
		raw, err := json.Marshal(&req)
		if err != nil {
			t.Fatalf("re-encoding a decoded request: %v", err)
		}
		var again Request
		if err := json.Unmarshal(raw, &again); err != nil {
			t.Fatalf("re-decoding a round-tripped request: %v", err)
		}
		raw2, err := json.Marshal(&again)
		if err != nil {
			t.Fatalf("re-encoding the round-tripped request: %v", err)
		}
		if !bytes.Equal(raw, raw2) {
			t.Fatalf("canonical encoding is not a fixed point:\n  first:  %s\n  second: %s", raw, raw2)
		}
	})
}
