package abc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/wire"
)

// Entry is one origin's contribution to a committed slot: the transactions
// of the batch party Origin broadcast and the slot's ABAs voted in.
type Entry struct {
	Origin int
	Txs    [][]byte
}

// SameEntries reports whether two committed slots carry the same origins
// with the same transaction bytes, in the same order.
func SameEntries(a, b []Entry) bool {
	return slices.EqualFunc(a, b, func(x, y Entry) bool {
		return x.Origin == y.Origin && slices.EqualFunc(x.Txs, y.Txs, bytes.Equal)
	})
}

// Default engine tunables (see EngineConfig).
const (
	DefaultBatchBytes   = 16 * 1024
	DefaultMempoolBytes = 256 * 1024
	DefaultMaxInFlight  = 2
)

// ErrMempoolClosed is returned by Mempool.Submit after Close.
var ErrMempoolClosed = errors.New("abc: mempool closed")

// maxBatchTxs bounds the decoded per-batch transaction count; a malformed
// count field must not drive allocation.
const maxBatchTxs = 1 << 20

// EncodeBatch serializes one batch for AVID dispersal. The stop flag rides
// in-band so the final slot is a deterministic function of agreed data: a
// stopping party whose mempool has drained marks its batches, and the first
// slot whose committed entries are all marked ends the log at every party.
func EncodeBatch(txs [][]byte, stop bool) []byte {
	var w wire.Writer
	w.Bool(stop)
	w.Int(len(txs))
	for _, tx := range txs {
		w.Blob(tx)
	}
	return w.Bytes()
}

// DecodeBatch parses a batch; malformed encodings (the only way a batch is
// excluded from slot assembly) fail deterministically on every party.
func DecodeBatch(b []byte) (txs [][]byte, stop bool, err error) {
	r := wire.NewReader(b)
	stop = r.Bool()
	count := r.Int()
	if count < 0 || count > maxBatchTxs {
		return nil, false, fmt.Errorf("abc: batch claims %d txs", count)
	}
	for i := 0; i < count && r.Err() == nil; i++ {
		txs = append(txs, r.Blob())
	}
	if err := r.Done(); err != nil {
		return nil, false, fmt.Errorf("abc: batch decode: %w", err)
	}
	return txs, stop, nil
}

// Mempool is the byte-bounded transaction queue feeding one party's engine.
// Submit blocks (backpressure, not drops) while the pool is at capacity;
// Take pops the next batch from the front; Requeue returns the party's own
// transactions to the front when a slot excluded its batch, exempt from the
// capacity bound so committed-exactly-once recovery can never deadlock
// against submitters. All methods are safe for concurrent use — Submit runs
// on caller goroutines while Take/Requeue run in the party's dispatch
// context.
type Mempool struct {
	mu     sync.Mutex
	space  sync.Cond // signaled when bytes leave the pool or it closes
	cap    int
	size   int
	txs    [][]byte
	closed bool
}

// NewMempool creates a pool admitting at most capBytes queued transaction
// bytes (<= 0 selects DefaultMempoolBytes).
func NewMempool(capBytes int) *Mempool {
	if capBytes <= 0 {
		capBytes = DefaultMempoolBytes
	}
	m := &Mempool{cap: capBytes}
	m.space.L = &m.mu
	return m
}

// Submit enqueues a copy of tx, blocking until the pool has room, the ctx
// ends, or the pool closes. A transaction larger than the whole capacity is
// rejected outright — it could never be admitted.
func (m *Mempool) Submit(ctx context.Context, tx []byte) error {
	if len(tx) > m.cap {
		return fmt.Errorf("abc: %d-byte tx exceeds mempool capacity %d", len(tx), m.cap)
	}
	// Cancellation must wake the cond wait below.
	stop := context.AfterFunc(ctx, func() {
		m.mu.Lock()
		defer m.mu.Unlock()
		m.space.Broadcast()
	})
	defer stop()
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		switch {
		case m.closed:
			return ErrMempoolClosed
		case ctx.Err() != nil:
			return ctx.Err()
		case m.size+len(tx) <= m.cap:
			m.txs = append(m.txs, append([]byte(nil), tx...))
			m.size += len(tx)
			return nil
		}
		m.space.Wait()
	}
}

// Take pops transactions from the front up to maxBytes (always at least one
// when the pool is non-empty, so an oversized requeued tx cannot wedge the
// queue). Pending transactions remain takeable after Close — draining is
// what Stop semantics are for.
func (m *Mempool) Take(maxBytes int) [][]byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out [][]byte
	total := 0
	for len(m.txs) > 0 && (len(out) == 0 || total+len(m.txs[0]) <= maxBytes) {
		tx := m.txs[0]
		m.txs[0] = nil
		m.txs = m.txs[1:]
		m.size -= len(tx)
		total += len(tx)
		out = append(out, tx)
	}
	if len(out) > 0 {
		m.space.Broadcast()
	}
	return out
}

// Requeue prepends txs (a batch a slot excluded) ahead of newer
// submissions, bypassing the capacity bound.
func (m *Mempool) Requeue(txs [][]byte) {
	if len(txs) == 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.txs = append(append(make([][]byte, 0, len(txs)+len(m.txs)), txs...), m.txs...)
	for _, tx := range txs {
		m.size += len(tx)
	}
}

// Close makes all current and future Submit calls return ErrMempoolClosed.
// Queued transactions stay takeable.
func (m *Mempool) Close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	m.space.Broadcast()
}

// Len reports the queued transaction count.
func (m *Mempool) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.txs)
}

// Drain removes and returns every queued transaction, front first.
func (m *Mempool) Drain() [][]byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	txs := m.txs
	m.txs, m.size = nil, 0
	m.space.Broadcast()
	return txs
}

// Empty reports whether no transactions are queued.
func (m *Mempool) Empty() bool { return m.Len() == 0 }
