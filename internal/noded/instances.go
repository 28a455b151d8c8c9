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
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"

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

// ledgerLog folds the committed slot stream into two digests. The chained
// digest covers slots, origins and order: equal values across processes
// certify an identical total order, not just an identical tx set. The set
// digest (a 256-bit additive hash over sha256(tx)) is order- and
// slot-insensitive: it identifies the delivered transaction multiset alone,
// so it is invariant under scheduling differences — the value a crash-
// recovery run can compare against an uninterrupted reference run, where
// slot layout may legally differ but the delivered set may not. Touched
// only from the dispatcher goroutine.
type ledgerLog struct {
	h     hash.Hash
	set   [sha256.Size]byte // 256-bit big-endian additive accumulator
	txs   int
	bytes int64
}

func newLedgerLog() *ledgerLog { return &ledgerLog{h: sha256.New()} }

func (l *ledgerLog) absorb(slot int, entries []abc.Entry) {
	var num [8]byte
	binary.BigEndian.PutUint64(num[:], uint64(slot))
	l.h.Write(num[:])
	for _, e := range entries {
		binary.BigEndian.PutUint64(num[:], uint64(e.Origin))
		l.h.Write(num[:])
		for _, tx := range e.Txs {
			binary.BigEndian.PutUint64(num[:], uint64(len(tx)))
			l.h.Write(num[:])
			l.h.Write(tx)
			addTx(&l.set, tx)
			l.txs++
			l.bytes += int64(len(tx))
		}
	}
}

// addTx adds sha256(tx) into the 256-bit big-endian accumulator, mod 2²⁵⁶ —
// the one definition of the set digest's group operation.
func addTx(set *[sha256.Size]byte, tx []byte) {
	sum := sha256.Sum256(tx)
	carry := 0
	for i := sha256.Size - 1; i >= 0; i-- {
		v := int(set[i]) + int(sum[i]) + carry
		set[i] = byte(v)
		carry = v >> 8
	}
}

func (l *ledgerLog) digest() string    { return hex.EncodeToString(l.h.Sum(nil)) }
func (l *ledgerLog) setDigest() string { return hex.EncodeToString(l.set[:]) }

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
	var set [sha256.Size]byte
	for self := 0; self < n; self++ {
		for k := 0; k < txCount; k++ {
			addTx(&set, LedgerTx(self, k, txBytes))
		}
	}
	return hex.EncodeToString(set[:])
}

// prepareLedger returns the construction closure of a streaming abc engine
// preloaded with this party's transactions. The log stays open until a drain
// op (the RPC's or shutdown's) calls RequestStop on every party; the decision
// carries the final slot and the ordered-log digest.
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
		log := newLedgerLog()
		eng := abc.NewEngine(rt, tag, keys, ecfg, pool,
			func(slot int, entries []abc.Entry) { log.absorb(slot, entries) },
			func(finalSlot int) {
				d.complete(inst, &Decision{
					Kind: "ledger", Tag: tag,
					FinalSlot: finalSlot,
					Value:     log.digest(),
					TxSet:     log.setDigest(),
					Txs:       log.txs,
					Bytes:     log.bytes,
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
