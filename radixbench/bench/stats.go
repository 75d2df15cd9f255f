package bench

import (
	"math"
	"sort"
)

// sortedCopy returns xs sorted ascending without touching the caller's slice.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// Median is the middle value of xs (mean of the two middle values for an
// even count); 0 for an empty sample.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Percentile is the nearest-rank p-th percentile (0 < p ≤ 100) of an
// ascending-sorted sample: the smallest value with at least p % of the
// sample at or below it. 0 for an empty sample.
func Percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// Quartiles returns the cut points Python's statistics.quantiles(xs, n=4)
// gives (the "exclusive" method) — the estimator the driver applies to the
// ten runs of a workload — so -selfcheck judges a spread exactly as the
// driver will. Fewer than two values yield that value three times.
func Quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	m := len(s)
	switch m {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		} else if j > m-1 {
			j = m - 1
		}
		// After clamping, delta may fall outside [0, 4]: Python then
		// extrapolates from the two end values, and so does this.
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// tailPercentiles are the candidates for "the highest percentile with at
// least ten samples beyond it": percentile p leaves one sample in every
// oneIn beyond it.
var tailPercentiles = []struct {
	p     float64
	oneIn int
}{{50, 2}, {90, 10}, {99, 100}, {99.9, 1000}, {99.99, 10000}}

// TailPercentile picks, for a sample of n values, the highest candidate
// percentile that still has at least ten samples beyond it (50 when even
// p90 has fewer). Reported with the sample count so a reader can tell a
// p99 of 10 000 requests from a p90 of 150 batches.
func TailPercentile(n int) float64 {
	best := tailPercentiles[0].p
	for _, c := range tailPercentiles {
		if n >= 10*c.oneIn {
			best = c.p
		}
	}
	return best
}

// RelSpread is (p90 − p10) / p50 of xs: the width of the middle four fifths
// relative to the median. 0 when the median is 0.
func RelSpread(xs []float64) float64 {
	s := sortedCopy(xs)
	med := Median(s)
	if med == 0 {
		return 0
	}
	return (Percentile(s, 90) - Percentile(s, 10)) / med
}

// IQRShare is (q3 − q1) / median with Quartiles' estimator — the spread the
// driver compares with a third of a metric's bound.
func IQRShare(xs []float64) float64 {
	q1, q2, q3 := Quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// RangeShare is (max − min) / median.
func RangeShare(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	med := Median(s)
	if med == 0 {
		return 0
	}
	return (s[len(s)-1] - s[0]) / math.Abs(med)
}
