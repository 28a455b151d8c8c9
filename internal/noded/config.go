package noded

// Config is one daemon's startup file, written by the launcher
// (internal/nodenet) and read by cmd/noded. It carries everything a party
// needs to join the cluster: its key material (with the full public board),
// the cluster shape, every peer's mesh address, and the optional WAN
// emulation profile. Durations travel as milliseconds so the file stays
// hand-editable.

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/livenet"
	"repro/internal/pki"
)

// Config describes one noded process.
type Config struct {
	N    int   `json:"n"`
	F    int   `json:"f"`
	Seed int64 `json:"seed"` // cluster-wide seed (WAN replay, dispatcher RNG)

	Listen  string   `json:"listen"`  // mesh data listen address
	Control string   `json:"control"` // control RPC listen address
	Peers   []string `json:"peers"`   // all parties' mesh addresses (length N)

	Keys *pki.KeyringConfig `json:"keys"` // private scalars + public board; Self lives here

	// WALDir enables durable crash recovery: the daemon journals its
	// delivery-critical state (processed frames, launches, drains, link
	// cursors) to a write-ahead log under this directory and, on restart
	// from the same config, replays it to resume exactly-once where the
	// dead process stopped. Empty = no journal (state dies with the
	// process, as before).
	WALDir string `json:"walDir,omitempty"`

	WAN *livenet.WANProfile `json:"wan,omitempty"` // nil = no emulation

	AwaitTimeoutMS int `json:"awaitTimeoutMs,omitempty"` // default per-await cap (0 = livenet default)
	DrainTimeoutMS int `json:"drainTimeoutMs,omitempty"` // graceful-shutdown ledger drain cap (0 = 30s)
}

// defaultDrainTimeout bounds how long a shutting-down daemon waits for its
// open ledgers to commit their all-stop slot.
const defaultDrainTimeout = 30 * time.Second

func (c *Config) validate() error {
	if c.Keys == nil {
		return fmt.Errorf("noded: config has no keys")
	}
	self := c.Keys.Self
	if c.N <= 0 || self < 0 || self >= c.N {
		return fmt.Errorf("noded: party %d of %d out of range", self, c.N)
	}
	if len(c.Peers) != c.N {
		return fmt.Errorf("noded: %d peer addresses, want %d", len(c.Peers), c.N)
	}
	return nil
}

func (c *Config) awaitTimeout() time.Duration {
	return time.Duration(c.AwaitTimeoutMS) * time.Millisecond
}

func (c *Config) drainTimeout() time.Duration {
	if c.DrainTimeoutMS <= 0 {
		return defaultDrainTimeout
	}
	return time.Duration(c.DrainTimeoutMS) * time.Millisecond
}

// LoadConfig reads and validates a daemon config file.
func LoadConfig(path string) (*Config, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c Config
	if err := json.Unmarshal(raw, &c); err != nil {
		return nil, fmt.Errorf("noded: parse %s: %w", path, err)
	}
	if err := c.validate(); err != nil {
		return nil, err
	}
	return &c, nil
}

// WriteConfig serializes a daemon config file (0600: it holds private keys).
func WriteConfig(path string, c *Config) error {
	if err := c.validate(); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o600)
}
