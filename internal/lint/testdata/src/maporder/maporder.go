// Fixture for the maporder analyzer: order-sensitive map-range bodies must
// be flagged; the allowed idioms (commutative accumulation, collect-then-
// sort, loop-key-indexed writes, map writes) must stay quiet.
package fixture

import "sort"

func sendsUnderRange(m map[int]int, ch chan int) {
	for k := range m { // want `sends on a channel`
		ch <- k
	}
}

func returnsLoopVar(m map[int]int) int {
	for k := range m { // want `returns a loop variable`
		return k
	}
	return -1
}

func assignsOutward(m map[int]int) int {
	best := -1
	for k := range m { // want `assigns a loop variable to best`
		if k > best {
			best = k
		}
	}
	return best
}

func callsWithLoopVar(m map[int][]byte, sink func([]byte)) {
	for _, v := range m { // want `calls sink with a loop variable`
		sink(v)
	}
}

// Allowed: commutative integer accumulation is order-insensitive.
func sum(m map[int]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

// Allowed: the collect-keys-then-sort idiom (what order.SortedKeys wraps).
func sortedKeys(m map[int]int) []int {
	ks := make([]int, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	return ks
}

// Allowed: a write indexed by the loop key lands at a fixed position
// regardless of iteration order.
func toSlice(m map[int]int, out []int) {
	for k, v := range m {
		out[k] = v
	}
}

// Allowed: writes into another map commute.
func invert(m map[int]int) map[int]int {
	inv := make(map[int]int, len(m))
	for k, v := range m {
		inv[v] = k
	}
	return inv
}

// A winner picked through a value derived from the loop key still depends
// on iteration order when two elements tie (coin.maybeCandidate's shape).
func derivedWinner(keys map[int]bool, vals map[int]*int) *int {
	var best *int
	for k := range keys { // want `assigns a loop variable to best`
		cand := vals[k]
		if cand == nil {
			continue
		}
		if best == nil || *best < *cand {
			best = cand
		}
	}
	return best
}

// Derived values taint to a fixpoint: x from k, y from x.
func derivedChain(m map[int]int, sink func(int)) {
	for k := range m { // want `calls sink with a loop variable`
		x := k + 1
		y := x * 2
		sink(y)
	}
}

// Only a := that redeclares a variable can taint it after another was read
// from it. Here the goto makes cur see k on the second pass through the
// block, so the taint needs a second pass too.
func derivedByRedeclare(m map[int]int, sink func(int)) {
	for k := range m { // want `calls sink with a loop variable`
		prev, again := 0, true
	top:
		cur := prev
		prev, last := k, !again
		if !last {
			again = false
			goto top
		}
		sink(cur)
	}
}
