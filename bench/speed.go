package main

// The runner this benchmark was written on shares its two vCPUs: for minutes
// at a time the same P-256 scalar multiplication takes 60 µs or 85 µs, and
// every processor-bound time moves with it. Ten runs of one workload then
// differ by 15–20 % (interquartile), which is more than most changes are
// worth. So the benchmark carries a speedometer — a goroutine that times a
// fixed standard-library computation every few milliseconds — and, on the
// workloads whose time is processor time (no injected delay), reports times
// as they would have been on a machine running that computation at
// referenceNsPerOp. That halves the spread (README, Steadiness). The values
// as measured are printed next to the corrected ones.

import (
	"crypto/ecdh"
	"crypto/rand"
	"runtime"
	"sort"
	"sync"
	"time"
)

const (
	// referenceNsPerOp is the speed times are reported at: one P-256 ECDH
	// (a scalar multiplication, the operation the ledger spends most of
	// its processor time in) per this many nanoseconds. It is the usual
	// speed of the runner the baseline was taken on, so that corrected and
	// measured values differ little there; any constant would do, since a
	// change and its parent are measured against the same one.
	referenceNsPerOp = 60_000
	speedEvery       = 5 * time.Millisecond
)

// speedometer samples how long the reference operation takes. The operation
// is standard-library code only, so no change to the repository can move it.
type speedometer struct {
	stop chan struct{}
	done chan struct{}

	mu      sync.Mutex
	at      []time.Time
	nsPerOp []float64
}

func startSpeedometer() (*speedometer, error) {
	key, err := ecdh.P256().GenerateKey(rand.Reader)
	if err != nil {
		return nil, err
	}
	other, err := ecdh.P256().GenerateKey(rand.Reader)
	if err != nil {
		return nil, err
	}
	peer := other.PublicKey()
	s := &speedometer{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		// A thread of its own, so that the sample is not queued behind
		// the dispatchers' goroutines.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		tick := time.NewTicker(speedEvery)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
			t0 := time.Now()
			if _, err := key.ECDH(peer); err != nil {
				return
			}
			d := time.Since(t0)
			s.mu.Lock()
			s.at = append(s.at, t0)
			s.nsPerOp = append(s.nsPerOp, float64(d))
			s.mu.Unlock()
		}
	}()
	return s, nil
}

func (s *speedometer) close() {
	close(s.stop)
	<-s.done
}

// slowdown reports how much slower than the reference the machine ran the
// reference operation between from and to (median over the samples taken in
// the interval), and on how many samples that rests. Without a speedometer,
// or without samples, nothing is corrected.
func (s *speedometer) slowdown(from, to time.Time) (float64, int) {
	if s == nil {
		return 1, 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	lo := sort.Search(len(s.at), func(i int) bool { return !s.at[i].Before(from) })
	hi := sort.Search(len(s.at), func(i int) bool { return s.at[i].After(to) })
	if lo >= hi {
		return 1, 0
	}
	return median(s.nsPerOp[lo:hi]) / referenceNsPerOp, hi - lo
}
