// Package memo is the one bounded memo behind every fast-path cache in the
// tree: VRF verdicts (vcache), PVSS script verdicts (scache), hash-to-point
// (group), Reed–Solomon codecs and bases (rs), verified AVID roots (rbc)
// and each party's signature book (pki). Each memoizes a deterministic
// check or construction, so an entry is advisory — results are identical
// with or without it — and the caching rule is the same everywhere:
//
//   - the map is bounded, and at its cap it drops every entry rather than
//     tracking recency;
//   - a miss runs outside the lock, so distinct keys compute in parallel on
//     the live runtimes, and the lock is never held while waiting;
//   - only a miss that succeeded is stored (a failed build or a rejected
//     root is recomputed next time);
//   - concurrent misses on one key compute once: the first caller runs f,
//     the rest wait for it and share its result.
//
// A Map in pass-through mode stores nothing and runs f on every call; it is
// the baseline leg of the dedup benchmarks.
package memo

import "sync"

// Map is a bounded memo from K to V, safe for concurrent use. The zero value
// is not usable; call New.
type Map[K comparable, V any] struct {
	max int

	mu      sync.Mutex
	pass    bool
	entries map[K]V
	flights map[K]*flight[V]
}

// flight is one in-progress miss; its waiters block on done.
type flight[V any] struct {
	done    chan struct{}
	waiters int // callers parked on done
	v       V
	err     error
}

// New returns an empty map holding at most max entries.
func New[K comparable, V any](max int) *Map[K, V] {
	return &Map[K, V]{max: max, entries: make(map[K]V), flights: make(map[K]*flight[V])}
}

// SetPassThrough switches pass-through mode on or off. Switching it on drops
// every entry.
func (m *Map[K, V]) SetPassThrough(on bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pass = on
	if on {
		m.entries = make(map[K]V)
	}
}

// Do returns the value stored for k, or else runs f and stores its value if
// f succeeded. ran reports whether this call ran f: a hit and a wait on a
// concurrent caller's f both report false, and share that f's error.
func (m *Map[K, V]) Do(k K, f func() (V, error)) (v V, ran bool, err error) {
	m.mu.Lock()
	if v, ok := m.entries[k]; ok {
		m.mu.Unlock()
		return v, false, nil
	}
	if fl, ok := m.flights[k]; ok {
		fl.waiters++
		m.mu.Unlock()
		<-fl.done
		return fl.v, false, fl.err
	}
	fl := &flight[V]{done: make(chan struct{})}
	if !m.pass {
		m.flights[k] = fl
	}
	m.mu.Unlock()

	fl.v, fl.err = f()

	m.mu.Lock()
	if m.flights[k] == fl {
		delete(m.flights, k)
	}
	if fl.err == nil {
		m.store(k, fl.v)
	}
	m.mu.Unlock()
	close(fl.done)
	return fl.v, true, fl.err
}

// Get returns the value stored for k.
func (m *Map[K, V]) Get(k K) (V, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	v, ok := m.entries[k]
	return v, ok
}

// Put stores v for k, for a value the caller has proven by other means.
func (m *Map[K, V]) Put(k K, v V) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.store(k, v)
}

// store adds one entry, dropping every entry first at the cap; callers hold
// m.mu.
func (m *Map[K, V]) store(k K, v V) {
	if m.pass {
		return
	}
	if len(m.entries) >= m.max {
		m.entries = make(map[K]V)
	}
	m.entries[k] = v
}
