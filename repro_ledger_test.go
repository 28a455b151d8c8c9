package repro

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// drainLedger collects the whole commit stream into a tx-count multiset,
// checking slot ordering and per-slot origin sorting along the way.
func drainLedger(t *testing.T, l *Ledger) map[string]int {
	t.Helper()
	seen := make(map[string]int)
	last := -1
	for commit := range l.Committed() {
		if commit.Slot <= last {
			t.Errorf("slot %d emitted after slot %d", commit.Slot, last)
		}
		last = commit.Slot
		prev := -1
		for _, e := range commit.Entries {
			if e.Origin <= prev {
				t.Errorf("slot %d entries not origin-sorted: %d after %d", commit.Slot, e.Origin, prev)
			}
			prev = e.Origin
			for _, tx := range e.Txs {
				seen[string(tx)]++
			}
		}
	}
	return seen
}

func checkExactlyOnce(t *testing.T, seen map[string]int, want []string) {
	t.Helper()
	for _, tx := range want {
		if seen[tx] != 1 {
			t.Errorf("tx %q committed %d times, want 1", tx, seen[tx])
		}
	}
	if len(seen) != len(want) {
		t.Errorf("committed %d distinct txs, want %d", len(seen), len(want))
	}
}

// TestLedgerStreamsCommits: the happy path — transactions submitted against
// a streaming ledger come back exactly once on the ordered commit stream,
// Stop drains everything with no leftovers, and the stream closes.
func TestLedgerStreamsCommits(t *testing.T) {
	c, err := NewCluster(4, WithSeed(101), WithGenesisNonce([]byte("ledger")))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	l, err := c.NewLedger("log", WithBatchBytes(64))
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for q := 0; q < 12; q++ {
		tx := fmt.Sprintf("ledger-tx-%02d", q)
		want = append(want, tx)
		if err := l.Submit(context.Background(), []byte(tx)); err != nil {
			t.Fatalf("submit %d: %v", q, err)
		}
	}
	got := make(chan map[string]int, 1)
	go func() { got <- drainLedger(t, l) }()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	leftover, err := l.Stop(ctx)
	if err != nil {
		t.Fatalf("stop: %v", err)
	}
	if len(leftover) != 0 {
		t.Fatalf("stop left %d txs behind", len(leftover))
	}
	checkExactlyOnce(t, <-got, want)
	if err := l.Err(); err != nil {
		t.Fatalf("ledger error after drain: %v", err)
	}
	if _, ok := <-l.Committed(); ok {
		t.Fatal("Committed() channel still open after Stop returned")
	}
	// Stop is idempotent: a second call returns immediately without error.
	if _, err := l.Stop(ctx); err != nil {
		t.Fatalf("second stop: %v", err)
	}
}

// TestLedgerSubmitAfterStopErrors: once Stop has begun, Submit fails with
// ErrLedgerStopped — including submissions racing the mempool close.
func TestLedgerSubmitAfterStopErrors(t *testing.T) {
	c, err := NewCluster(4, WithSeed(102), WithGenesisNonce([]byte("ledger")))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	l, err := c.NewLedger("log")
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Submit(context.Background(), []byte("pre-stop")); err != nil {
		t.Fatal(err)
	}
	go drainLedger(t, l)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if _, err := l.Stop(ctx); err != nil {
		t.Fatalf("stop: %v", err)
	}
	if err := l.Submit(context.Background(), []byte("post-stop")); !errors.Is(err, ErrLedgerStopped) {
		t.Fatalf("submit after stop: got %v, want ErrLedgerStopped", err)
	}
}

// TestLedgerIdenticalLogsUnderCrash: with f crashed parties the surviving
// honest logs must still be identical — the pump verifies every slot
// entry-by-entry across parties before emitting, so a clean drain IS the
// identity proof — and every submitted transaction still commits.
func TestLedgerIdenticalLogsUnderCrash(t *testing.T) {
	c, err := NewCluster(7, WithSeed(103), WithCrashed(2), WithGenesisNonce([]byte("ledger")))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	l, err := c.NewLedger("log", WithBatchBytes(64))
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for q := 0; q < 10; q++ {
		tx := fmt.Sprintf("crash-tx-%02d", q)
		want = append(want, tx)
		if err := l.Submit(context.Background(), []byte(tx)); err != nil {
			t.Fatalf("submit %d: %v", q, err)
		}
	}
	got := make(chan map[string]int, 1)
	go func() { got <- drainLedger(t, l) }()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if _, err := l.Stop(ctx); err != nil {
		t.Fatalf("stop under crash(f): %v", err)
	}
	checkExactlyOnce(t, <-got, want)
}

// TestLedgerIdenticalLogsUnderAdversarialSchedulers: LIFO and partition
// message adversaries at n=7 cannot diverge the honest logs or lose
// transactions.
func TestLedgerIdenticalLogsUnderAdversarialSchedulers(t *testing.T) {
	if testing.Short() {
		t.Skip("adversarial schedulers at n=7 are slow; skipped in -short")
	}
	for _, sched := range []string{"lifo", "partition"} {
		t.Run(sched, func(t *testing.T) {
			c, err := NewCluster(7, WithSeed(104), WithScheduler(sched),
				WithGenesisNonce([]byte("ledger")))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			l, err := c.NewLedger("log", WithBatchBytes(64))
			if err != nil {
				t.Fatal(err)
			}
			var want []string
			for q := 0; q < 7; q++ {
				tx := fmt.Sprintf("%s-tx-%02d", sched, q)
				want = append(want, tx)
				if err := l.Submit(context.Background(), []byte(tx)); err != nil {
					t.Fatalf("submit %d: %v", q, err)
				}
			}
			got := make(chan map[string]int, 1)
			go func() { got <- drainLedger(t, l) }()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
			defer cancel()
			leftover, err := l.Stop(ctx)
			if err != nil {
				t.Fatalf("stop under %s scheduler: %v", sched, err)
			}
			// The adversary can push a requeued excluded batch past the
			// final slot; those transactions come back from Stop, never
			// silently vanish. Conservation: committed + leftover is the
			// submitted multiset, each exactly once.
			seen := <-got
			committed := len(seen)
			for _, tx := range leftover {
				seen[string(tx)]++
			}
			checkExactlyOnce(t, seen, want)
			if committed == 0 {
				t.Fatalf("%s scheduler: no transactions committed at all", sched)
			}
		})
	}
}

// TestLedgerAbandonedConsumerDegradesToError: nobody drains Committed(),
// so the pump wedges on its first emit; a Stop whose ctx expires against
// that wedge must return ctx.Err() AND abort the pump — the stream closes
// and Err reports ErrLedgerAbandoned — instead of leaking the pump (and
// the simulator driver it holds) forever.
func TestLedgerAbandonedConsumerDegradesToError(t *testing.T) {
	c, err := NewCluster(4, WithSeed(106), WithGenesisNonce([]byte("ledger")))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	l, err := c.NewLedger("log", WithBatchBytes(64))
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 4; q++ {
		if err := l.Submit(context.Background(), []byte(fmt.Sprintf("abandon-tx-%d", q))); err != nil {
			t.Fatalf("submit %d: %v", q, err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, err := l.Stop(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stop against an undrained stream: got %v, want ctx deadline", err)
	}
	select {
	case <-l.done:
	case <-time.After(30 * time.Second):
		t.Fatal("pump still running 30s after abort — leaked")
	}
	if err := l.Err(); !errors.Is(err, ErrLedgerAbandoned) {
		t.Fatalf("ledger error after abort: got %v, want ErrLedgerAbandoned", err)
	}
	if _, ok := <-l.Committed(); ok {
		t.Fatal("commit stream still open after abort")
	}
}

// TestLedgerBackpressureBlocksNotDrops: with tiny mempools, an unread
// commit stream, and pipelining depth 1, admission is bounded — Submit
// must eventually BLOCK (ctx deadline), never drop. Once the consumer
// starts draining, everything admitted commits exactly once (leftovers
// from the final-slot cutoff are returned by Stop, not lost).
func TestLedgerBackpressureBlocksNotDrops(t *testing.T) {
	c, err := NewCluster(4, WithSeed(105), WithGenesisNonce([]byte("ledger")))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	l, err := c.NewLedger("log",
		WithMempoolBytes(64), WithBatchBytes(64), WithMaxInFlightSlots(1))
	if err != nil {
		t.Fatal(err)
	}
	// 40-byte txs against a 64-byte pool: one queued tx per party at most.
	// Nobody reads Committed(), so the pump wedges on its first emit and
	// admission is capped at (in-flight batches + one queued tx) per party.
	var admitted []string
	blocked := false
	for q := 0; q < 20 && !blocked; q++ {
		tx := make([]byte, 40)
		copy(tx, fmt.Sprintf("bp-tx-%02d", q))
		ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
		err := l.Submit(ctx, tx)
		cancel()
		switch {
		case err == nil:
			admitted = append(admitted, string(tx))
		case errors.Is(err, context.DeadlineExceeded):
			blocked = true
		default:
			t.Fatalf("submit %d: %v", q, err)
		}
	}
	if !blocked {
		t.Fatalf("20 submissions all admitted against 4×64-byte pools — backpressure never engaged")
	}
	got := make(chan map[string]int, 1)
	go func() { got <- drainLedger(t, l) }()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	leftover, err := l.Stop(ctx)
	if err != nil {
		t.Fatalf("stop: %v", err)
	}
	seen := <-got
	for _, tx := range leftover {
		seen[string(tx)]++
	}
	checkExactlyOnce(t, seen, admitted)
}

// TestLedgerStopWhilePumpDrains: Stop called right after the last Submit —
// BenchmarkABCThroughput's n = 4 shape — races the pump, which usually holds
// the drive token in an Await at that moment. Stop's RequestStop launches
// wait for that token; an Await that drained the queue in the gap used to
// see "stopped, engines unfinished, queue empty" and fail a healthy ledger
// ("queue drained after N steps but run not done"; seed 2 hit it).
func TestLedgerStopWhilePumpDrains(t *testing.T) {
	if testing.Short() {
		t.Skip("four 48-tx ledger runs take several seconds")
	}
	for seed := int64(1); seed <= 4; seed++ {
		c, err := NewCluster(4, WithSeed(seed), WithGenesisNonce([]byte("bench")))
		if err != nil {
			t.Fatal(err)
		}
		l, err := c.NewLedger("log", WithBatchBytes(256))
		if err != nil {
			t.Fatal(err)
		}
		got := make(chan map[string]int, 1)
		go func() { got <- drainLedger(t, l) }()
		var want []string
		for q := 0; q < 48; q++ {
			tx := make([]byte, 64)
			copy(tx, fmt.Sprintf("stop-race-tx-%d-%d", seed, q))
			want = append(want, string(tx))
			if err := l.Submit(context.Background(), tx); err != nil {
				t.Fatalf("seed %d: submit %d: %v", seed, q, err)
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		leftover, err := l.Stop(ctx)
		cancel()
		if err != nil {
			t.Fatalf("seed %d: stop: %v", seed, err)
		}
		if len(leftover) != 0 {
			t.Fatalf("seed %d: stop left %d txs behind", seed, len(leftover))
		}
		checkExactlyOnce(t, <-got, want)
		c.Close()
	}
}
