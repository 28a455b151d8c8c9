package noded

// Launch and ledger only: every other kind a launch request can name is
// built, started and turned into its Decision by the internal/kinds table.
// Either way the instance runs on exactly one party — the other n-1
// instances of the same tag live in other processes, reached over the mesh
// — all protocol construction happens on the dispatcher goroutine, and
// every decision funnels into Daemon.complete.
//
// prepare validates a launch and returns the construction closure that
// Daemon.apply hands back as the launch's act, so a live launch and its
// replay build the instance through the same code.

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/adversary"
	"repro/internal/core/abc"
	"repro/internal/core/coin"
	"repro/internal/kinds"
	"repro/internal/proto"
)

// Default ledger workload shape (overridable per launch request).
const (
	defaultTxCount = 32
	defaultTxBytes = 128
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
	if req.Kind == "ledger" {
		return d.prepareLedger(req, coin.Config{GenesisNonce: genesis}, rt), nil
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
		start(rt, tag, d.ring, genesis, in, func(dec *Decision) { d.complete(inst, dec) })
	}, nil
}

// KindInput maps a launch request to the kinds-table input: Input is the
// vba proposal and, in the low bit of its first byte, the aba input bit;
// Predicate names the vba validity predicate. nodenet's simulator reference
// feeds its clusters through the same mapping.
func (req *Request) KindInput() (kinds.Input, error) {
	valid, err := PredicateByName(req.Predicate)
	if err != nil {
		return kinds.Input{}, err
	}
	in := kinds.Input{Proposal: append([]byte(nil), req.Input...), Valid: valid, Epochs: req.Epochs}
	if len(req.Input) > 0 {
		in.Bit = req.Input[0] & 1
	}
	return in, nil
}

// LedgerTx is the deterministic transaction party self submits at preload
// index k — the single definition the daemon loads from and harnesses
// predict with.
func LedgerTx(self, k, txBytes int) []byte {
	tx := make([]byte, txBytes)
	copy(tx, fmt.Sprintf("tx/%d/%d/", self, k))
	return tx
}

// ExpectedTxSet computes the set digest an exactly-once full delivery of
// every party's preload must produce: since the multiset is fixed by
// (n, txCount, txBytes) alone, any run — interrupted or not — that delivers
// each transaction exactly once reports this value.
func ExpectedTxSet(n, txCount, txBytes int) string {
	var set abc.SetDigest
	for self := 0; self < n; self++ {
		for k := 0; k < txCount; k++ {
			set.Add(LedgerTx(self, k, txBytes))
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

// prepareLedger returns the construction closure of a streaming abc engine
// preloaded with this party's transactions. The log stays open until a drain
// op (the RPC's or shutdown's) calls RequestStop on every party; the decision
// carries the final slot, the ordered-log digest and the pool's leftovers.
func (d *Daemon) prepareLedger(req *Request, cfg coin.Config, rt proto.Runtime) func(inst *instance) {
	txCount, txBytes := req.TxCount, req.TxBytes
	if txCount <= 0 {
		txCount = defaultTxCount
	}
	if txBytes < 16 {
		txBytes = defaultTxBytes
	}
	keys, tag := d.ring, req.Tag
	ecfg := abc.EngineConfig{
		Coin:        cfg,
		BatchBytes:  req.BatchBytes,
		MaxInFlight: req.MaxInFlight,
	}
	self := d.self
	return func(inst *instance) {
		pool := abc.NewMempool(2*txCount*txBytes + 1024)
		log := abc.NewLog()
		eng := abc.NewEngine(rt, tag, keys, ecfg, pool, log.Deliver,
			func(finalSlot int) {
				log.HandBack(pool.Drain())
				d.complete(inst, &Decision{
					Kind: "ledger", Tag: tag,
					FinalSlot:   finalSlot,
					Value:       log.Digest(),
					TxSet:       log.Set.String(),
					Txs:         log.Txs,
					Bytes:       log.Bytes,
					Leftover:    log.Leftover,
					LeftoverSet: log.LeftSet.String(),
				})
			})
		// A drain's act reads eng back on the dispatcher, behind this task.
		d.mu.Lock()
		inst.eng = eng
		d.mu.Unlock()
		for k := 0; k < txCount; k++ {
			tx := LedgerTx(self, k, txBytes)
			if err := pool.Submit(context.Background(), tx); err != nil {
				break // pool sized for the preload; only closure lands here
			}
		}
		eng.Start()
	}
}
