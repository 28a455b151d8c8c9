package repro

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestLedgerConcurrentSubmitAndStop: several submitters race one Stop under
// the LIFO and partition adversaries. Submit and Stop only post messages to
// the ledger's owner goroutine, so whichever order they land in, the ledger
// must drain within the deadline and conserve admission: committed plus
// leftover is the admitted set, each transaction exactly once, and a
// transaction Submit refused never appears. An n = 7 run costs as much as
// eight n = 4 runs (one slot is 49 ABA coins' worth of AVSS), so n = 7 runs
// one seed: the test runs hundreds of times in the ledger stress job, where
// repetition, not the seed, varies the interleaving.
func TestLedgerConcurrentSubmitAndStop(t *testing.T) {
	for _, sched := range []string{"lifo", "partition"} {
		for _, tc := range []struct{ n, seeds int }{{4, 8}, {7, 1}} {
			for seed := int64(1); seed <= int64(tc.seeds); seed++ {
				t.Run(fmt.Sprintf("%s/n%d/seed%d", sched, tc.n, seed), func(t *testing.T) {
					if testing.Short() && (tc.n > 4 || seed > 2) {
						t.Skip("-short runs n = 4 seeds 1-2 only")
					}
					t.Parallel()
					raceSubmitAndStop(t, sched, tc.n, seed)
				})
			}
		}
	}
}

func raceSubmitAndStop(t *testing.T, sched string, n int, seed int64) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	c, err := NewCluster(n, WithSeed(seed), WithScheduler(sched), WithGenesisNonce([]byte("ledger")))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	l, err := c.NewLedger("log", WithBatchBytes(1024))
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan map[string]int, 1)
	go func() { got <- drainLedger(t, l) }()

	const submitters, perSubmitter = 3, 4
	var (
		mu       sync.Mutex
		admitted []string
		first    = make(chan struct{})
		once     sync.Once
		wg       sync.WaitGroup
	)
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := 0; q < perSubmitter; q++ {
				tx := fmt.Sprintf("race-%s-n%d-s%d-g%d-%d", sched, n, seed, g, q)
				switch err := l.Submit(ctx, []byte(tx)); {
				case err == nil:
					mu.Lock()
					admitted = append(admitted, tx)
					mu.Unlock()
					once.Do(func() { close(first) })
				case errors.Is(err, ErrLedgerStopped):
					return
				default:
					t.Errorf("submit %s: %v", tx, err)
					return
				}
			}
		}()
	}
	// Stop once something is admitted, while the other submitters still run.
	<-first
	leftover, err := l.Stop(ctx)
	if err != nil {
		t.Fatalf("stop: %v", err)
	}
	wg.Wait()
	seen := <-got
	for _, tx := range leftover {
		seen[string(tx)]++
	}
	checkExactlyOnce(t, seen, admitted)
	if err := l.Err(); err != nil {
		t.Fatalf("ledger error after drain: %v", err)
	}
}

// TestLedgerResumesAfterIdleQuiesce: a ledger whose submitted work has all
// committed goes idle — on the simulator its owner's Await finds the queue
// drained with nothing in flight and parks — and must wake for the next
// Submit, round after round, then still drain cleanly on Stop. The live
// runtime has no drained queue; there the owner waits inside Await until a
// Submit's Update wakes it.
func TestLedgerResumesAfterIdleQuiesce(t *testing.T) {
	for _, kind := range []RuntimeKind{RuntimeSim, RuntimeLiveChannels} {
		t.Run(kind.String(), func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			c, err := NewCluster(4, WithRuntime(kind), WithSeed(107), WithGenesisNonce([]byte("ledger")))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			l, err := c.NewLedger("log", WithBatchBytes(64))
			if err != nil {
				t.Fatal(err)
			}
			committed := make(chan string, 64)
			go func() {
				defer close(committed)
				for commit := range l.Committed() {
					for _, e := range commit.Entries {
						for _, tx := range e.Txs {
							committed <- string(tx)
						}
					}
				}
			}()
			seen := make(map[string]int)
			var want []string
			for round := 0; round < 3; round++ {
				var batch []string
				for q := 0; q < 5; q++ {
					tx := fmt.Sprintf("idle-%d-%d", round, q)
					batch = append(batch, tx)
					if err := l.Submit(ctx, []byte(tx)); err != nil {
						t.Fatalf("round %d: submit %d: %v", round, q, err)
					}
				}
				want = append(want, batch...)
				for len(seen) < len(want) {
					select {
					case tx := <-committed:
						seen[tx]++
					case <-ctx.Done():
						t.Fatalf("round %d: %d of %d txs committed before the deadline", round, len(seen), len(want))
					}
				}
				if kind == RuntimeSim {
					// Deliver everything still queued (the decided ABAs'
					// tails), so the owner's next Await finds the queue
					// drained with nothing owed.
					if err := c.hc.Await(ctx, func() bool { return c.hc.Net.Pending() == 0 }); err != nil {
						t.Fatalf("round %d: draining the simulator: %v", round, err)
					}
				}
				// Either way the next Submit must be served; the pause only
				// makes it likely to find the owner parked rather than
				// still inside its Await.
				time.Sleep(20 * time.Millisecond)
			}
			leftover, err := l.Stop(ctx)
			if err != nil {
				t.Fatalf("stop: %v", err)
			}
			for tx := range committed {
				seen[tx]++
			}
			for _, tx := range leftover {
				seen[string(tx)]++
			}
			checkExactlyOnce(t, seen, want)
			if err := l.Err(); err != nil {
				t.Fatalf("ledger error after drain: %v", err)
			}
		})
	}
}
