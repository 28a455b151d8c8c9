package rbc

// Bracha is the echo/ready quorum rule of Bracha's broadcast ([14], §4) for
// one instance on one node under n ≥ 3f+1, counted per key K (the value, or
// a digest standing for it): a party readies once 2f+1 distinct parties
// echoed a key or f+1 distinct parties readied it, and delivers once 2f+1
// readied it. Each of ready and deliver is reported at most once per
// instance, for whichever key first reaches its threshold. The owner keeps
// the wire encoding and acts on what is reported.
type Bracha[K comparable] struct {
	f         int
	echoes    map[K]map[int]bool
	readies   map[K]map[int]bool
	readied   bool
	delivered bool
}

// NewBracha returns an empty quorum tracker for fault bound f.
func NewBracha[K comparable](f int) Bracha[K] {
	return Bracha[K]{f: f, echoes: make(map[K]map[int]bool), readies: make(map[K]map[int]bool)}
}

// Echo records from's ECHO of k and reports whether this party must now
// send READY: true once, when 2f+1 distinct parties echoed k and no ready
// was reported before. A repeated sender counts once.
func (b *Bracha[K]) Echo(from int, k K) (ready bool) {
	return add(b.echoes, k, from) >= 2*b.f+1 && b.ready()
}

// Ready records from's READY of k. ready is true once, when f+1 distinct
// parties readied k and no ready was reported before; deliver is true once,
// when 2f+1 did. A repeated sender counts once.
func (b *Bracha[K]) Ready(from int, k K) (ready, deliver bool) {
	n := add(b.readies, k, from)
	ready = n >= b.f+1 && b.ready()
	if n >= 2*b.f+1 && !b.delivered {
		b.delivered, deliver = true, true
	}
	return ready, deliver
}

// Readied reports whether from's READY of k was recorded.
func (b *Bracha[K]) Readied(k K, from int) bool { return b.readies[k][from] }

// Quorum reports whether 2f+1 distinct parties readied k, for owners whose
// delivery waits on more than the READY quorum.
func (b *Bracha[K]) Quorum(k K) bool { return len(b.readies[k]) >= 2*b.f+1 }

func (b *Bracha[K]) ready() bool {
	if b.readied {
		return false
	}
	b.readied = true
	return true
}

// add inserts from into the sender set of k and returns the set's size. A
// repeated sender leaves the size as it was, so every threshold it could
// meet was met, and reported, before.
func add[K comparable](sets map[K]map[int]bool, k K, from int) int {
	set := sets[k]
	if set == nil {
		set = make(map[int]bool)
		sets[k] = set
	}
	set[from] = true
	return len(set)
}
