package noded

// Control-plane wire format: newline-delimited JSON over TCP. The launcher
// (internal/nodenet) drives each daemon through this — launch instances,
// await decisions, inject faults, collect stats, shut down. Predicates
// cannot cross a process boundary as functions, so VBA validity is named
// ("any", "prefix:<p>") and resolved daemon-side.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"repro/internal/kinds"
)

// Ops accepted by the daemon control listener.
const (
	OpPing   = "ping"   // liveness probe
	OpLaunch = "launch" // start a protocol instance on this party
	OpAwait  = "await"  // block until an instance decides
	OpDrain  = "drain"  // RequestStop open ledgers (graceful log close)
	OpStats  = "stats"  // traffic + transport counters
	OpSever  = "sever"  // force-close one outbound mesh connection
	OpStop   = "stop"   // graceful shutdown (same path as SIGTERM)
)

// Request is one control-plane command.
type Request struct {
	Op string `json:"op"`

	// launch / await / drain
	Kind      string `json:"kind,omitempty"`      // coin|aba|election|vba|adkg|beacon|ledger
	Tag       string `json:"tag,omitempty"`       // instance path (cluster-unique)
	Genesis   []byte `json:"genesis,omitempty"`   // coin genesis nonce ([]byte(tag) if empty)
	Input     []byte `json:"input,omitempty"`     // aba: input bit in [0]; vba: proposal
	Predicate string `json:"predicate,omitempty"` // vba: "any" (default) or "prefix:<p>"
	Epochs    int    `json:"epochs,omitempty"`    // beacon epoch count
	Byz       string `json:"byz,omitempty"`       // adversary behavior name; this party lies

	// ledger tunables (defaults in kinds.startLedger)
	TxCount     int `json:"txCount,omitempty"`     // txs this party submits
	TxBytes     int `json:"txBytes,omitempty"`     // bytes per tx
	BatchBytes  int `json:"batchBytes,omitempty"`  // abc batch cap
	MaxInFlight int `json:"maxInFlight,omitempty"` // abc pipelining window

	// await
	TimeoutMS int64 `json:"timeoutMs,omitempty"` // 0 = daemon default

	// sever
	To int `json:"to,omitempty"`
}

// Response answers one Request.
type Response struct {
	OK       bool      `json:"ok"`
	Error    string    `json:"error,omitempty"`
	Decision *Decision `json:"decision,omitempty"`
	Stats    *Stats    `json:"stats,omitempty"`

	// Severed answers OpSever: whether a live connection was actually
	// killed (false while the link is still dialing — retry for a
	// guaranteed mid-flight kill).
	Severed bool `json:"severed,omitempty"`
}

// Decision is one party's view of a finished instance — the unit the
// launcher compares across processes (and against the simulator).
type Decision = kinds.Decision

// Stats is one party's runtime counters.
type Stats struct {
	Party    int   `json:"party"`
	Msgs     int64 `json:"msgs"`
	Bytes    int64 `json:"bytes"`
	Rejected int64 `json:"rejected"`
	// Equivocations counts conflicting-message evidence this party's
	// handlers recorded — proof a peer lied, vs Rejected's plain garbage.
	Equivocations int64 `json:"equivocations,omitempty"`

	Frames        int64 `json:"frames"`
	Syscalls      int64 `json:"syscalls"`
	Dropped       int64 `json:"dropped"`
	Resends       int64 `json:"resends"`
	Redials       int64 `json:"redials"`
	BackoffResets int64 `json:"backoffResets"`
	AuthRejects   int64 `json:"authRejects"`
	Dups          int64 `json:"dups"`
	WANDelays     int64 `json:"wanDelays"`
	WANLosses     int64 `json:"wanLosses"`

	// ControlWriteErrs counts control-RPC responses the daemon failed to
	// write back to a launcher (the connection died mid-reply).
	ControlWriteErrs int64 `json:"controlWriteErrs,omitempty"`

	// Crash-recovery counters (zero without Config.WALDir). Restarts is 1
	// when this process rebuilt itself from a journal; ReplayedFrames /
	// ReplayedOps break down the re-executed records; SelfMismatches counts
	// replay self-sends that diverged from the journal (always 0 for a
	// faithful deterministic replay). The WAL* fields are live journal
	// counters.
	Restarts          int64 `json:"restarts,omitempty"`
	ReplayedRecords   int64 `json:"replayedRecords,omitempty"`
	ReplayedFrames    int64 `json:"replayedFrames,omitempty"`
	ReplayedOps       int64 `json:"replayedOps,omitempty"`
	SelfMismatches    int64 `json:"selfMismatches,omitempty"`
	WALAppends        int64 `json:"walAppends,omitempty"`
	WALSyncs          int64 `json:"walSyncs,omitempty"`
	WALCompactions    int64 `json:"walCompactions,omitempty"`
	WALTruncatedBytes int64 `json:"walTruncatedBytes,omitempty"`
	WALSnapshotBytes  int64 `json:"walSnapshotBytes,omitempty"`
}

// PredicateByName resolves a named VBA validity predicate ("any",
// "prefix:<p>") — the daemon-side half of passing predicates over RPC.
func PredicateByName(name string) (func([]byte) bool, error) {
	switch {
	case name == "" || name == "any":
		return func([]byte) bool { return true }, nil
	case strings.HasPrefix(name, "prefix:"):
		p := strings.TrimPrefix(name, "prefix:")
		return func(v []byte) bool { return strings.HasPrefix(string(v), p) }, nil
	}
	return nil, fmt.Errorf("noded: unknown predicate %q", name)
}

// Client is a control-plane connection to one daemon. Call serializes, so
// a client is safe for concurrent use — but a long-blocking call (a
// 0-deadline await, say) holds the connection; callers that must stay
// responsive while one is in flight should Dial a second client.
type Client struct {
	mu   sync.Mutex // one request/response in flight per connection
	conn net.Conn
	r    *bufio.Reader
}

// Dial connects to a daemon's control listener.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn, r: bufio.NewReader(conn)}, nil
}

// Close releases the connection.
func (c *Client) Close() error { return c.conn.Close() }

// Call sends one request and reads its response. deadline bounds the whole
// round trip (0 = no deadline — used for long awaits).
func (c *Client) Call(req *Request, deadline time.Duration) (*Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if deadline > 0 {
		if err := c.conn.SetDeadline(time.Now().Add(deadline)); err != nil {
			return nil, fmt.Errorf("noded: control deadline: %w", err)
		}
		// Best-effort reset: if the conn died during the call, the next
		// Call's SetDeadline reports it.
		defer c.conn.SetDeadline(time.Time{})
	}
	raw, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	if _, err := c.conn.Write(append(raw, '\n')); err != nil {
		return nil, fmt.Errorf("noded: control write: %w", err)
	}
	line, err := c.r.ReadBytes('\n')
	if err != nil {
		return nil, fmt.Errorf("noded: control read: %w", err)
	}
	var resp Response
	if err := json.Unmarshal(line, &resp); err != nil {
		return nil, fmt.Errorf("noded: control decode: %w", err)
	}
	if !resp.OK {
		return &resp, fmt.Errorf("noded: %s", resp.Error)
	}
	return &resp, nil
}
