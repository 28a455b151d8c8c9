package noded

// Launch: the internal/kinds table builds, starts and decides every kind a
// launch request can name, the ledger included. The instance runs on
// exactly one party — the other n-1 instances of the same tag live in other
// processes, reached over the mesh — all protocol construction happens on
// the dispatcher goroutine, and every decision funnels into Daemon.complete.
//
// prepare validates a launch and returns the construction closure that
// Daemon.apply hands back as the launch's act, so a live launch and its
// replay build the instance through the same code.

import (
	"errors"
	"fmt"

	"repro/internal/adversary"
	"repro/internal/core/abc"
	"repro/internal/kinds"
	"repro/internal/proto"
)

// errDuplicateTag marks a register collision; recovery treats it as "already
// restored from the snapshot" and skips the replayed launch.
var errDuplicateTag = errors.New("duplicate instance tag")

// prepare validates a launch request and returns the construction closure to
// run on the dispatcher goroutine. Nothing is registered yet — validation
// errors (behavior, kind and predicate lookups) surface before the tag is
// claimed and before the launch is journaled.
func (d *Daemon) prepare(req *Request) (func(inst *instance), error) {
	genesis := req.Genesis
	if len(genesis) == 0 {
		genesis = []byte(req.Tag)
	}
	var rt proto.Runtime = d.party.Node()
	if req.Byz != "" {
		// This party runs the instance through a lying runtime: the state
		// machine below stays the honest one, but its outbound messages
		// pass through the named adversary behavior. The other processes
		// detect (and survive) the lies over real TCP.
		b, ok := adversary.Lookup(req.Byz)
		if !ok {
			return nil, fmt.Errorf("noded: unknown adversary behavior %q", req.Byz)
		}
		rt = adversary.Wrap(rt, b)
	}
	start, err := kinds.Lookup(req.Kind)
	if err != nil {
		return nil, fmt.Errorf("noded: %w", err)
	}
	in, err := req.KindInput()
	if err != nil {
		return nil, err
	}
	tag := req.Tag
	return func(inst *instance) {
		stop := start(rt, tag, d.ring, genesis, in, func(dec *Decision) { d.complete(inst, dec) })
		// A drain's act reads stop back on the dispatcher, behind this task.
		d.mu.Lock()
		inst.stop = stop
		d.mu.Unlock()
	}, nil
}

// KindInput maps a launch request to the kinds-table input: Input is the
// vba proposal and, in the low bit of its first byte, the aba input bit;
// Predicate names the vba validity predicate; the ledger fields pass
// through. nodenet's simulator reference feeds its clusters through the
// same mapping.
func (req *Request) KindInput() (kinds.Input, error) {
	valid, err := PredicateByName(req.Predicate)
	if err != nil {
		return kinds.Input{}, err
	}
	in := kinds.Input{Proposal: append([]byte(nil), req.Input...), Valid: valid, Epochs: req.Epochs,
		TxCount: req.TxCount, TxBytes: req.TxBytes, BatchBytes: req.BatchBytes, MaxInFlight: req.MaxInFlight}
	if len(req.Input) > 0 {
		in.Bit = req.Input[0] & 1
	}
	return in, nil
}

// ExpectedTxSet computes the set digest an exactly-once full delivery of
// every party's preload must produce: since the multiset is fixed by
// (n, txCount, txBytes) alone, any run — interrupted or not — that delivers
// each transaction exactly once reports this value.
func ExpectedTxSet(n, txCount, txBytes int) string {
	var set abc.SetDigest
	for self := 0; self < n; self++ {
		for k := 0; k < txCount; k++ {
			set.Add(kinds.LedgerTx(self, k, txBytes))
		}
	}
	return set.String()
}

// CheckLedger checks agreeing ledger decisions, one per party, against
// their preloads of txCount txBytes-byte txs: conservation (the committed
// set plus every party's leftovers is the preload), then full delivery (no
// leftovers), which a slow honest party voted out of the final slots
// breaks alone.
func CheckLedger(decs []*Decision, txCount, txBytes int) error {
	sets, txs := []string{decs[0].TxSet}, decs[0].Txs
	for _, d := range decs {
		sets, txs = append(sets, d.LeftoverSet), txs+d.Leftover
	}
	got, err := abc.SumSets(sets...)
	if want := ExpectedTxSet(len(decs), txCount, txBytes); err == nil && (got != want || txs != len(decs)*txCount) {
		err = fmt.Errorf("conservation broken: committed plus leftover txs=%d set=%s, want txs=%d set=%s",
			txs, got, len(decs)*txCount, want)
	}
	for i := 0; err == nil && i < len(decs); i++ {
		if decs[i].Leftover != 0 {
			err = fmt.Errorf("full delivery broken, conservation held: party %d got %d txs back", i, decs[i].Leftover)
		}
	}
	return err
}
