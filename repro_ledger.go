package repro

// The streaming ledger: the public surface of the BKR parallel-broadcast
// common-subset engine (internal/core/abc.Engine), one engine per honest
// party wired by exp.LaunchABC. Submit feeds transactions into per-party
// mempools with blocking backpressure; Stop drains in-band: stopping
// parties flag their batches, and the first slot committing only flagged
// batches ends the log identically everywhere.
//
// One goroutine per ledger, the owner (run), is the only code that launches
// into the runtime or awaits it. Submit and Stop never touch the driver:
// they post a message — a coalescing wake-up on mail — and the owner
// applies it between Awaits: NotifyWork at the parties with queued
// transactions, or, once Stop has begun, RequestStop at every party at
// once. Because nothing else launches, an Await that fails while no slot is
// in flight (a drained simulator queue, a live-runtime timeout) is an idle
// ledger: the owner parks until the next message.

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/core/abc"
	"repro/internal/core/coin"
	"repro/internal/exp"
)

// ErrLedgerStopped is returned by Ledger.Submit once Stop has begun.
var ErrLedgerStopped = errors.New("repro: ledger stopped")

// ErrLedgerAbandoned is the terminal error recorded when the ledger's
// owner goroutine is aborted because the consumer stopped draining
// Committed() and a Stop caller's ctx expired waiting on the wedged drain.
var ErrLedgerAbandoned = errors.New("repro: ledger commit stream abandoned (consumer stopped draining)")

// LedgerOption tunes NewLedger.
type LedgerOption func(*ledgerOptions)

type ledgerOptions struct {
	batchBytes   int
	mempoolBytes int
	maxInFlight  int
}

// WithBatchBytes bounds the transaction bytes one party packs per slot
// batch (default 16 KiB).
func WithBatchBytes(n int) LedgerOption { return func(o *ledgerOptions) { o.batchBytes = n } }

// WithMempoolBytes bounds each party's queued transaction bytes; Submit
// blocks (backpressure, not drops) while the chosen party's pool is full
// (default 256 KiB).
func WithMempoolBytes(n int) LedgerOption { return func(o *ledgerOptions) { o.mempoolBytes = n } }

// WithMaxInFlightSlots bounds how many slots may run past the committed
// frontier — the pipelining depth (default 2).
func WithMaxInFlightSlots(n int) LedgerOption { return func(o *ledgerOptions) { o.maxInFlight = n } }

// LedgerEntry is one origin's contribution to a committed slot.
type LedgerEntry struct {
	Origin int // the party whose broadcast carried these transactions
	Txs    [][]byte
}

// SlotCommit is one committed slot: the agreed subset of party batches,
// entries sorted by origin, identical at every honest party. Slots arrive
// in index order; indices may skip slots that committed no transactions.
type SlotCommit struct {
	Slot    int
	Entries []LedgerEntry
}

// Ledger is a streaming atomic-broadcast log on a Cluster. Submit and Stop
// are safe for concurrent use; Committed's channel must be drained by the
// consumer (an undrained stream blocks the owner goroutine, and Stop cannot
// complete). An abandoned stream is recoverable: when a Stop caller's ctx
// expires against the wedged drain, the owner is aborted — the stream
// closes and Err reports ErrLedgerAbandoned instead of the owner leaking.
type Ledger struct {
	c     *Cluster
	order []int // honest parties, round-robin submit targets
	pools []*abc.Mempool
	out   chan SlotCommit
	mail  chan struct{} // coalescing wake-up for the owner (buffered, size 1)
	done  chan struct{} // closed when the owner exits (after out closes)

	// abort cancels aborted, forcing the owner out of a wedged drain.
	aborted context.Context
	abort   context.CancelFunc

	mu      sync.Mutex
	stopped bool // Stop has begun: Submit fails
	err     error
	rr      int // round-robin cursor

	// Owned by the owner goroutine. logs, launched and finished are what the
	// last Await predicate saw under the driver lock, per order index.
	inst     *exp.ABCInstance
	stopping bool // every engine has been handed RequestStop
	emitted  int  // slots emitted to out
	logs     [][][]abc.Entry
	launched []int
	finished bool
}

// NewLedger starts a streaming atomic-broadcast ledger under tag. The
// ledger is work-conserving: with nothing submitted, no slots run. Callers
// must Stop the ledger before closing the cluster.
func (c *Cluster) NewLedger(tag string, opts ...LedgerOption) (*Ledger, error) {
	if err := c.claim(tag); err != nil {
		return nil, err
	}
	var o ledgerOptions
	for _, opt := range opts {
		opt(&o)
	}
	l := &Ledger{
		c:     c,
		pools: make([]*abc.Mempool, c.n),
		out:   make(chan SlotCommit),
		mail:  make(chan struct{}, 1),
		done:  make(chan struct{}),
	}
	l.aborted, l.abort = context.WithCancel(context.Background())
	c.hc.EachHonest(func(i int) {
		l.order = append(l.order, i)
		l.pools[i] = abc.NewMempool(o.mempoolBytes)
	})
	l.logs = make([][][]abc.Entry, len(l.order))
	l.launched = make([]int, len(l.order))
	go l.run(tag, abc.EngineConfig{
		Coin:        coin.Config{GenesisNonce: c.genesis},
		BatchBytes:  o.batchBytes,
		MaxInFlight: o.maxInFlight,
	})
	return l, nil
}

// Submit enqueues one transaction, blocking while the target mempool is at
// capacity (backpressure, never drops). Transactions spread round-robin
// across the honest parties' pools. Returns ErrLedgerStopped after Stop.
func (l *Ledger) Submit(ctx context.Context, tx []byte) error {
	l.mu.Lock()
	if l.stopped {
		l.mu.Unlock()
		return ErrLedgerStopped
	}
	p := l.order[l.rr%len(l.order)]
	l.rr++
	l.mu.Unlock()
	if err := l.pools[p].Submit(ctx, tx); err != nil {
		if errors.Is(err, abc.ErrMempoolClosed) {
			return ErrLedgerStopped
		}
		return err
	}
	l.post()
	return nil
}

// Committed returns the ordered commit stream. It is closed after the
// final slot (post-Stop drain) or on an internal error — check Err after
// the channel closes.
func (l *Ledger) Committed() <-chan SlotCommit { return l.out }

// Err reports the ledger's terminal error, if any, once Committed's channel
// has closed. A non-nil value means the stream is incomplete (runtime
// stall, timeout, or — indicating a bug — honest log divergence).
func (l *Ledger) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Stop drains and ends the ledger: future Submits fail, already-queued
// transactions commit through flagged slots, and the stream closes after
// the agreed final slot. Returns the leftover transactions, committed
// nowhere: a slow honest party can be voted out of the final slots, and its
// batch comes back to its pool after the log has ended. A party that never
// stops would keep the ledger open; here every honest party stops. Stop is
// idempotent; all callers block until the drain completes or their ctx
// ends. A ctx that ends first aborts the owner — the usual cause is a
// consumer that stopped draining Committed(), wedging the drain — so the
// stream closes, Err reports ErrLedgerAbandoned, and Stop returns
// ctx.Err() rather than leaking the owner forever.
func (l *Ledger) Stop(ctx context.Context) ([][]byte, error) {
	l.mu.Lock()
	already := l.stopped
	l.stopped = true
	l.mu.Unlock()
	if !already {
		for _, i := range l.order {
			l.pools[i].Close()
		}
		l.post()
	}
	select {
	case <-l.done:
	case <-ctx.Done():
		l.abort()
		return nil, ctx.Err()
	}
	if err := l.Err(); err != nil {
		return nil, err
	}
	var leftover [][]byte
	for _, i := range l.order {
		leftover = append(leftover, l.pools[i].Drain()...)
	}
	return leftover, nil
}

// post hands the owner a message: the coalescing wake-up, then an Update so
// that a live-runtime Await re-evaluates its predicate.
func (l *Ledger) post() {
	select {
	case l.mail <- struct{}{}:
	default:
	}
	l.c.hc.Update(func() {})
}

// run is the owner: it launches one engine per honest party, drives them,
// and records the terminal error before closing the stream. Cancelling
// l.aborted forces it out of any blocking state (idle park, runtime await,
// stream send) with ErrLedgerAbandoned as that error.
func (l *Ledger) run(tag string, cfg abc.EngineConfig) {
	defer close(l.done)
	defer close(l.out)
	l.inst = exp.LaunchABC(l.c.hc, tag, cfg, l.pools)
	err := l.drive()
	if l.aborted.Err() != nil {
		err = ErrLedgerAbandoned
	}
	l.abort()
	if err != nil {
		l.mu.Lock()
		l.err = fmt.Errorf("repro: ledger %q: %w", tag, err)
		l.mu.Unlock()
	}
}

// drive alternates applying messages with awaiting the runtime and relays
// verified commits to the stream, until every engine finished.
func (l *Ledger) drive() error {
	for idle := false; l.apply(idle); {
		err := l.c.hc.Await(l.aborted, l.look)
		switch {
		case err != nil && !l.owes():
			idle = true
		case err != nil:
			return err
		default:
			idle = false
			if err := l.emit(); err != nil || l.finished {
				return err
			}
		}
	}
	return nil // aborted while idle
}

// apply takes the pending message — waiting for one while the ledger is
// idle — and hands it to the engines: RequestStop at every party once Stop
// has begun, else NotifyWork at the parties with queued transactions. It
// reports false when the ledger is aborted while idle.
func (l *Ledger) apply(idle bool) bool {
	if idle {
		select {
		case <-l.mail:
		case <-l.aborted.Done():
			return false
		}
	} else {
		select {
		case <-l.mail:
		default:
			return true
		}
	}
	l.mu.Lock()
	stop := l.stopped && !l.stopping
	l.mu.Unlock()
	l.stopping = l.stopping || stop
	for _, i := range l.order {
		switch {
		case stop:
			l.c.hc.Launch(i, func() { l.inst.Engine(i).RequestStop() })
		case !l.pools[i].Empty():
			l.c.hc.Launch(i, func() { l.inst.Engine(i).NotifyWork() })
		}
	}
	return true
}

// look is the owner's Await predicate, evaluated under the driver lock. It
// records every honest party's log and launch count and whether all
// engines finished, and holds when a slot is emittable, every engine
// finished, or a message is waiting.
func (l *Ledger) look() bool {
	emittable := true
	for k, i := range l.order {
		l.logs[k], l.launched[k] = l.inst.Log(i), l.inst.Launched(i)
		emittable = emittable && len(l.logs[k]) > l.emitted
	}
	l.finished = l.inst.Finished()
	return emittable || l.finished || len(l.mail) > 0
}

// owes reports whether the last look — for a failed Await, the state it
// failed in — saw a slot launched past some party's log or an unfinished
// stop drain.
func (l *Ledger) owes() bool {
	if l.stopping && !l.finished {
		return true
	}
	for k, lg := range l.logs {
		if l.launched[k] > len(lg) {
			return true
		}
	}
	return false
}

// emit relays every slot all honest logs now hold to the stream, first
// checking the logs agree on it entry by entry. It fails on honest-log
// divergence (a protocol-safety bug, not an operational condition) or an
// abort against an abandoned stream.
func (l *Ledger) emit() error {
	for ; ; l.emitted++ {
		s := l.emitted
		for _, lg := range l.logs {
			if len(lg) <= s {
				return nil
			}
		}
		ref := l.logs[0][s]
		for _, lg := range l.logs[1:] {
			if !abc.SameEntries(ref, lg[s]) {
				return fmt.Errorf("slot %d diverged across honest parties (bug)", s)
			}
		}
		commit := SlotCommit{Slot: s}
		for _, e := range ref {
			if len(e.Txs) > 0 {
				commit.Entries = append(commit.Entries, LedgerEntry{Origin: e.Origin, Txs: e.Txs})
			}
		}
		if len(commit.Entries) == 0 {
			continue
		}
		select {
		case l.out <- commit: // consumer backpressure; no locks held
		case <-l.aborted.Done():
			return l.aborted.Err()
		}
	}
}
