package memo

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// waiters counts the callers parked on k's flight.
func (m *Map[K, V]) waiters(k K) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if fl, ok := m.flights[k]; ok {
		return fl.waiters
	}
	return 0
}

// TestSingleFlight asserts concurrent misses on one key run f once, with
// every caller receiving the shared value and only the first reporting
// ran. The first f is released only once every other caller has either
// parked on its flight or returned, so the test does not depend on timing.
func TestSingleFlight(t *testing.T) {
	m := New[string, int](16)
	var execs, returned atomic.Int64
	release := make(chan struct{})
	started := make(chan struct{})
	const callers = 8
	vals := make([]int, callers)
	rans := make([]bool, callers)
	var wg sync.WaitGroup

	wg.Add(1)
	go func() {
		defer wg.Done()
		vals[0], rans[0], _ = m.Do("same", func() (int, error) {
			execs.Add(1)
			close(started)
			<-release
			return 7, nil
		})
	}()
	<-started
	for i := 1; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			vals[i], rans[i], _ = m.Do("same", func() (int, error) {
				execs.Add(1)
				return -1, nil
			})
			returned.Add(1)
		}()
	}
	for m.waiters("same")+int(returned.Load()) < callers-1 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()

	if got := execs.Load(); got != 1 {
		t.Fatalf("f ran %d times, want 1", got)
	}
	for i := range vals {
		if vals[i] != 7 || rans[i] != (i == 0) {
			t.Fatalf("caller %d got (%d, ran=%v), want (7, ran=%v)", i, vals[i], rans[i], i == 0)
		}
	}
	if v, ok := m.Get("same"); !ok || v != 7 {
		t.Fatalf("Get = (%d, %v), want (7, true)", v, ok)
	}
}

func TestFailureNotStored(t *testing.T) {
	m := New[int, string](16)
	boom := errors.New("boom")
	runs := 0
	for i := 0; i < 2; i++ {
		_, ran, err := m.Do(1, func() (string, error) { runs++; return "bad", boom })
		if !ran || err != boom {
			t.Fatalf("call %d: (ran=%v, err=%v), want (true, boom)", i, ran, err)
		}
	}
	if runs != 2 {
		t.Fatalf("failed f ran %d times, want 2 (never stored)", runs)
	}
	if _, ok := m.Get(1); ok {
		t.Fatal("failed value stored")
	}
	if v, ran, err := m.Do(1, func() (string, error) { return "ok", nil }); v != "ok" || !ran || err != nil {
		t.Fatalf("Do after failures = (%q, %v, %v)", v, ran, err)
	}
	if v, ran, _ := m.Do(1, func() (string, error) { return "other", nil }); v != "ok" || ran {
		t.Fatalf("hit = (%q, ran=%v), want (ok, false)", v, ran)
	}
}

func TestDropsEveryEntryAtCap(t *testing.T) {
	const max = 4
	m := New[int, int](max)
	for k := 0; k < max; k++ {
		m.Put(k, k)
	}
	for k := 0; k < max; k++ {
		if _, ok := m.Get(k); !ok {
			t.Fatalf("key %d missing below the cap", k)
		}
	}
	m.Put(max, max)
	for k := 0; k < max; k++ {
		if _, ok := m.Get(k); ok {
			t.Fatalf("key %d survived the cap", k)
		}
	}
	if v, ok := m.Get(max); !ok || v != max {
		t.Fatalf("newest key = (%d, %v), want (%d, true)", v, ok, max)
	}
}

func TestPassThroughStoresNothing(t *testing.T) {
	m := New[string, int](16)
	m.Put("old", 1)
	m.SetPassThrough(true)
	if _, ok := m.Get("old"); ok {
		t.Fatal("entry survived the switch to pass-through")
	}
	runs := 0
	for i := 0; i < 3; i++ {
		if v, ran, _ := m.Do("k", func() (int, error) { runs++; return 2, nil }); v != 2 || !ran {
			t.Fatalf("call %d = (%d, ran=%v), want (2, true)", i, v, ran)
		}
	}
	m.Put("k", 2)
	if runs != 3 {
		t.Fatalf("f ran %d times, want 3", runs)
	}
	if _, ok := m.Get("k"); ok {
		t.Fatal("pass-through stored a value")
	}
	m.SetPassThrough(false)
	m.Do("k", func() (int, error) { return 2, nil })
	if _, ran, _ := m.Do("k", func() (int, error) { return 2, nil }); ran {
		t.Fatal("memo off after leaving pass-through")
	}
}
