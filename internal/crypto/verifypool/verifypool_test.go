package verifypool

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkersDefault(t *testing.T) {
	if w := New(0).Workers(); w <= 0 {
		t.Fatalf("default workers = %d, want > 0", w)
	}
	if w := New(3).Workers(); w != 3 {
		t.Fatalf("workers = %d, want 3", w)
	}
}

// TestBoundedConcurrency asserts at most Workers Run closures execute at
// once.
func TestBoundedConcurrency(t *testing.T) {
	const workers = 3
	p := New(workers)
	var cur, peak atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Run(func() {
				c := cur.Add(1)
				for {
					pk := peak.Load()
					if c <= pk || peak.CompareAndSwap(pk, c) {
						break
					}
				}
				time.Sleep(time.Millisecond)
				cur.Add(-1)
			})
		}()
	}
	wg.Wait()
	if pk := peak.Load(); pk > workers {
		t.Fatalf("peak concurrency %d exceeds bound %d", pk, workers)
	}
}

func TestParRunsEveryTaskUnderBound(t *testing.T) {
	p := New(2)
	var running, peak, done atomic.Int64
	tasks := make([]func(), 16)
	for i := range tasks {
		tasks[i] = func() {
			now := running.Add(1)
			for {
				prev := peak.Load()
				if now <= prev || peak.CompareAndSwap(prev, now) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			running.Add(-1)
			done.Add(1)
		}
	}
	p.Par(tasks)
	if done.Load() != 16 {
		t.Fatalf("Par completed %d of 16 tasks", done.Load())
	}
	if peak.Load() > 2 {
		t.Fatalf("Par ran %d tasks concurrently, bound is 2", peak.Load())
	}
}

func TestParSingleTaskRunsInline(t *testing.T) {
	p := New(1)
	ran := false
	p.Par([]func(){func() { ran = true }})
	if !ran {
		t.Fatal("single task not executed")
	}
}
