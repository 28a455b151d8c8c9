// Package kinds is the one table of session-level protocol kinds — coin,
// aba, election, vba, adkg, beacon. Per kind it holds the only code that
// knows how to build and start that protocol on one party, and how to turn
// its output into the canonical Decision. The experiment launchers and the
// Byzantine runner (internal/exp), the noded launch path, the nodenet
// workloads with their simulator reference, and the public repro handles
// all go through Lookup, so adding a kind is one entry here.
//
// The streaming ledger is not a kind: it owns a mempool and stops in-band,
// and keeps its own wiring: exp.LaunchABC in-process (repro.Ledger builds
// on it) and noded for a single-party process.
package kinds

import (
	"encoding/hex"
	"fmt"
	"slices"

	"repro/internal/core/aba"
	"repro/internal/core/adkg"
	"repro/internal/core/beacon"
	"repro/internal/core/coin"
	"repro/internal/core/election"
	"repro/internal/core/vba"
	"repro/internal/pki"
	"repro/internal/proto"
)

// Decision is one party's view of a finished instance — the unit compared
// across parties, across processes and against the simulator. Fields beyond
// Kind/Tag are kind-specific. It is also noded's wire and WAL-snapshot
// format, so the JSON tags are pinned.
type Decision struct {
	Kind string `json:"kind"`
	Tag  string `json:"tag"`

	Bit       int    `json:"bit,omitempty"`       // coin / aba decided bit
	MaxSet    bool   `json:"maxSet,omitempty"`    // coin: this party's speculative max was non-⊥
	Round     int    `json:"round,omitempty"`     // aba decision round
	Leader    int    `json:"leader,omitempty"`    // election winner
	ByDefault bool   `json:"byDefault,omitempty"` // election fell to default leader
	Value     string `json:"value,omitempty"`     // vba decided value; ledger log digest (hex)
	View      int    `json:"view,omitempty"`      // vba decision view

	GroupPK string `json:"groupPk,omitempty"` // adkg aggregate public key (hex)
	Weight  int    `json:"weight,omitempty"`  // adkg transcript weight

	EpochValues []string `json:"epochValues,omitempty"` // beacon values (hex, in order)
	Attempts    []int    `json:"attempts,omitempty"`    // beacon elections per epoch

	FinalSlot int   `json:"finalSlot,omitempty"` // ledger final committed slot
	Txs       int   `json:"txs,omitempty"`       // ledger delivered tx count
	Bytes     int64 `json:"bytes,omitempty"`     // ledger delivered tx bytes
	// TxSet is the order-insensitive digest of the delivered tx multiset —
	// invariant across scheduling differences (including crash/recovery),
	// unlike Value's order-chained digest.
	TxSet string `json:"txSet,omitempty"`
}

// Same reports whether two decisions carry the same agreement output. Tag
// names the instance, and Round, View, Attempts and MaxSet are one party's
// observation of how the run went — honest parties legitimately differ on
// them — so they are not compared.
func (d *Decision) Same(o *Decision) bool {
	if d == nil || o == nil {
		return d == o
	}
	return d.Kind == o.Kind && d.Bit == o.Bit && d.Leader == o.Leader &&
		d.ByDefault == o.ByDefault && d.Value == o.Value &&
		d.GroupPK == o.GroupPK && d.Weight == o.Weight &&
		d.FinalSlot == o.FinalSlot && d.Txs == o.Txs && d.Bytes == o.Bytes &&
		d.TxSet == o.TxSet && slices.Equal(d.EpochValues, o.EpochValues)
}

// Agree reports whether every decision is the Same as the first.
func Agree(ds []*Decision) bool {
	for i := 1; i < len(ds); i++ {
		if !ds[0].Same(ds[i]) {
			return false
		}
	}
	return true
}

// Canonical returns a copy with the per-party observations cleared: the
// agreement output alone, under the instance's tag.
func (d *Decision) Canonical() *Decision {
	c := *d
	c.Round, c.View, c.Attempts, c.MaxSet = 0, 0, nil, false
	return &c
}

// Input is one party's input to an instance; each kind reads only its own
// fields.
type Input struct {
	Bit byte // aba: the input bit
	// Coins overrides the aba's round coins (the test, local and threshold
	// coins of the E6 rows and ablations); nil means paper coins under tag/c.
	Coins    aba.CoinFactory
	Proposal []byte        // vba: the proposed value
	Valid    vba.Predicate // vba: the external-validity predicate Q
	Epochs   int           // beacon: epochs to run; ≤ 0 means 1
}

// Start builds one party's instance of a kind on rt under tag and starts it.
// genesis is the coin layer's one-time nonce (nil = on-the-fly Seeding). out
// receives the party's decision exactly once, in rt's dispatch context.
type Start func(rt proto.Runtime, tag string, keys *pki.Keyring, genesis []byte, in Input, out func(*Decision))

var table = map[string]Start{
	"coin":     startCoin,
	"aba":      startABA,
	"election": startElection,
	"vba":      startVBA,
	"adkg":     startADKG,
	"beacon":   startBeacon,
}

// Lookup resolves a kind name to its start function.
func Lookup(name string) (Start, error) {
	start, ok := table[name]
	if !ok {
		return nil, fmt.Errorf("kinds: unknown protocol kind %q", name)
	}
	return start, nil
}

func startCoin(rt proto.Runtime, tag string, keys *pki.Keyring, genesis []byte, _ Input, out func(*Decision)) {
	coin.New(rt, tag, keys, coin.Config{GenesisNonce: genesis}, func(r coin.Result) {
		out(&Decision{Kind: "coin", Tag: tag, Bit: int(r.Bit), MaxSet: r.Max != nil})
	}).Start()
}

func startABA(rt proto.Runtime, tag string, keys *pki.Keyring, genesis []byte, in Input, out func(*Decision)) {
	coins := in.Coins
	if coins == nil {
		coins = aba.PaperCoins(rt, tag+"/c", keys, coin.Config{GenesisNonce: genesis})
	}
	var a *aba.ABA
	a = aba.New(rt, tag, coins, func(b byte) {
		out(&Decision{Kind: "aba", Tag: tag, Bit: int(b), Round: a.DecidedRound})
	})
	a.Start(in.Bit)
}

func startElection(rt proto.Runtime, tag string, keys *pki.Keyring, genesis []byte, _ Input, out func(*Decision)) {
	cfg := election.Config{Coin: coin.Config{GenesisNonce: genesis}}
	election.New(rt, tag, keys, cfg, func(r election.Result) {
		out(&Decision{Kind: "election", Tag: tag, Leader: r.Leader, ByDefault: r.ByDefault})
	}).Start()
}

func startVBA(rt proto.Runtime, tag string, keys *pki.Keyring, genesis []byte, in Input, out func(*Decision)) {
	cfg := vba.Config{Coin: coin.Config{GenesisNonce: genesis}}
	var v *vba.VBA
	v = vba.New(rt, tag, keys, in.Valid, cfg, func(val []byte) {
		out(&Decision{Kind: "vba", Tag: tag, Value: string(val), View: v.DecidedView})
	})
	v.Start(in.Proposal)
}

func startADKG(rt proto.Runtime, tag string, keys *pki.Keyring, genesis []byte, _ Input, out func(*Decision)) {
	cfg := adkg.Config{VBA: vba.Config{Coin: coin.Config{GenesisNonce: genesis}}}
	adkg.New(rt, tag, keys, cfg, func(k adkg.ThresholdKey) {
		out(&Decision{
			Kind: "adkg", Tag: tag,
			GroupPK: hex.EncodeToString(k.GroupPK.Bytes()),
			Weight:  k.Script.WeightCount(),
		})
	}).Start()
}

// startBeacon decides once, after the last epoch, with every epoch's value.
func startBeacon(rt proto.Runtime, tag string, keys *pki.Keyring, genesis []byte, in Input, out func(*Decision)) {
	epochs := max(in.Epochs, 1)
	d := &Decision{Kind: "beacon", Tag: tag}
	cfg := beacon.Config{Coin: coin.Config{GenesisNonce: genesis}, Epochs: epochs}
	beacon.New(rt, tag, keys, cfg, func(e beacon.Epoch) {
		d.EpochValues = append(d.EpochValues, hex.EncodeToString(e.Value[:]))
		d.Attempts = append(d.Attempts, e.Attempts)
		if len(d.EpochValues) == epochs {
			out(d)
		}
	}).Start()
}
