package noded

import (
	"testing"
	"time"

	"repro/internal/kinds"
)

// walAppends reads one party's journal append counter over the control RPC.
func walAppends(t *testing.T, c *Client) int64 {
	t.Helper()
	resp, err := c.Call(&Request{Op: OpStats}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return resp.Stats.WALAppends
}

// TestRejectedLaunchLeavesTagFree: the kind, predicate and behavior lookups
// happen before the tag is claimed and before the launch is journaled, so a
// launch rejected for any of them appends nothing to the WAL and leaves the
// tag free — a valid launch under the same tag then succeeds on every party
// and decides.
func TestRejectedLaunchLeavesTagFree(t *testing.T) {
	clients := startClusterWAL(t, 4, 1, 15, t.TempDir()).clients
	const tag = "reuse"
	idle := walAppends(t, clients[0])
	for _, bad := range []*Request{
		{Op: OpLaunch, Kind: "nope", Tag: tag},
		{Op: OpLaunch, Kind: "vba", Tag: tag, Input: []byte("ok:v"), Predicate: "weird"},
		{Op: OpLaunch, Kind: "election", Tag: tag, Byz: "byz/no-such-behavior"},
	} {
		for i, c := range clients {
			if _, err := c.Call(bad, 5*time.Second); err == nil {
				t.Fatalf("party %d accepted %+v", i, bad)
			}
		}
	}
	if got := walAppends(t, clients[0]); got != idle {
		t.Fatalf("rejected launches journaled %d records", got-idle)
	}
	for i, c := range clients {
		req := &Request{Op: OpLaunch, Kind: "vba", Tag: tag, Input: []byte("ok:v"), Predicate: "prefix:ok:"}
		if _, err := c.Call(req, 5*time.Second); err != nil {
			t.Fatalf("party %d: valid launch under the tag of rejected ones: %v", i, err)
		}
	}
	if got := walAppends(t, clients[0]); got <= idle {
		t.Fatal("the accepted launch was not journaled: the append counter cannot tell a rejected one")
	}
	decs := awaitAll(t, clients, tag)
	if !kinds.Agree(decs) || decs[0].Kind != "vba" || decs[0].Tag != tag || decs[0].Value != "ok:v" {
		t.Fatalf("decisions %+v, want every party on vba value ok:v", decs)
	}
}
