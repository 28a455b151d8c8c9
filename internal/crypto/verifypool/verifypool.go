// Package verifypool bounds concurrent expensive work. The live runtime
// verifies from n dispatcher goroutines at once; without a bound an n=16
// cluster can stack 16 multi-pairing PVSS script verifications on a 4-core
// box. A Pool is a counting semaphore: at most Workers tasks execute
// concurrently and excess callers queue (callers block for their result,
// so the pool adds no asynchrony — protocol semantics are unchanged on both
// runtimes, and on the single-threaded simulator every call runs inline).
// Deduplicating a repeated verification is the caller's memo's job (see
// internal/crypto/memo), not the pool's.
//
// The pool holds no goroutines of its own — construction is free and idle
// pools cost nothing.
package verifypool

import (
	"runtime"
	"sync"
)

// Pool runs closures with bounded concurrency. The zero value is not
// usable; call New.
type Pool struct {
	sem chan struct{}
}

// New returns a pool executing at most workers closures concurrently;
// workers <= 0 selects runtime.NumCPU().
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	return &Pool{sem: make(chan struct{}, workers)}
}

// Workers reports the pool's concurrency bound.
func (p *Pool) Workers() int { return cap(p.sem) }

// Par runs every task under the concurrency bound and returns when all have
// completed. It is the pool's data-parallel face: callers that split a batch
// of independent column/row work (the Reed–Solomon codec's per-column field
// arithmetic) fan the pieces out here and inherit the pool's NumCPU-style
// bound instead of spawning unbounded goroutines. The bound is per pool:
// callers that want one CPU budget shared with verification work must pass
// the same Pool instance. A single task runs inline on the caller with no
// goroutine at all, so small batches pay nothing for the generality.
func (p *Pool) Par(tasks []func()) {
	if len(tasks) == 1 {
		tasks[0]()
		return
	}
	var wg sync.WaitGroup
	for _, task := range tasks {
		wg.Add(1)
		go func(fn func()) {
			defer wg.Done()
			p.Run(fn)
		}(task)
	}
	wg.Wait()
}

// Run executes fn under the concurrency bound.
func (p *Pool) Run(fn func()) {
	p.sem <- struct{}{}
	fn()
	<-p.sem
}
