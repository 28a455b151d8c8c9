package main

import (
	"math"
	"sort"
	"time"
)

// percentile is the nearest-rank p-th percentile (0 < p ≤ 100) of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles mirrors Python's statistics.quantiles(values, n=4) (the
// exclusive method), which is what the driver's spread rule uses.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// iqrShare is the interquartile distance as a share of the median.
func iqrShare(vals []float64) float64 {
	q1, q2, q3 := quartiles(vals)
	return (q3 - q1) / q2
}

// txSample is one committed transaction's latency and the slot that carried
// it. Transactions of one slot commit at the same instant, so the slot — not
// the transaction — is the independent sample behind a latency percentile.
type txSample struct {
	ms      float64
	slot    int
	stretch int // which stretch of the window the transaction was due in
}

// tailSupport is the number of independent samples the choosing-metrics rule
// wants beyond a reported percentile.
const tailSupport = 10

// slotPercentile returns the p-th percentile over transactions and the
// number of distinct slots that carried a transaction slower than it.
func slotPercentile(samples []txSample, p float64) (value float64, slotsBeyond int) {
	if len(samples) == 0 {
		return math.NaN(), 0
	}
	s := append([]txSample(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i].ms < s[j].ms })
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	value = s[rank-1].ms
	beyond := make(map[int]bool)
	for _, t := range s[rank:] {
		if t.ms > value {
			beyond[t.slot] = true
		}
	}
	return value, len(beyond)
}

// highestSupported picks, from the candidate percentiles, the highest one
// that still has tailSupport slots beyond it (0 when none does).
func highestSupported(samples []txSample, candidates []float64) float64 {
	best := 0.0
	for _, p := range candidates {
		if _, beyond := slotPercentile(samples, p); beyond >= tailSupport && p > best {
			best = p
		}
	}
	return best
}

func msValues(samples []txSample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = s.ms
	}
	sort.Float64s(out)
	return out
}

// stretchLen is the length of the parts a window is cut into for the
// end-to-end latency and throughput figures (a window shorter than two of
// them is one stretch). On the shared runner a run is hit by spells of a few
// seconds in which everything takes twice as long; a spell that covers a
// quarter of the window moves a pooled p75 to wherever the spell put it. The
// median over the stretches of each stretch's percentile ignores spells that
// cover fewer than half of them.
const stretchLen = 2 * time.Second

func stretchCount(window time.Duration) int {
	return max(1, int(window/stretchLen))
}

// stretchPercentile is the median, over the window's stretches, of the p-th
// latency percentile of the transactions due in the stretch.
func stretchPercentile(samples []txSample, p float64) float64 {
	by := map[int][]float64{}
	for _, s := range samples {
		by[s.stretch] = append(by[s.stretch], s.ms)
	}
	vals := make([]float64, 0, len(by))
	for _, v := range by {
		sort.Float64s(v)
		vals = append(vals, percentile(v, p))
	}
	return median(vals)
}
