package main

import (
	"math"
	"sort"
)

// quartiles returns the first quartile, median and third quartile of v the
// way Python's statistics.quantiles(v, n=4) does (the default "exclusive"
// method), so a spread computed here equals the one the acceptance driver
// computes from the same values. v need not be sorted and is not modified.
// Fewer than two values have no spread: all three results are v[0] (or 0).
func quartiles(v []float64) (q1, med, q3 float64) {
	if len(v) == 0 {
		return 0, 0, 0
	}
	if len(v) == 1 {
		return v[0], v[0], v[0]
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		// Taken after clamping, as Python does: at the ends delta leaves
		// [0, 4] and the cut point is extrapolated.
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// median returns the middle value of v (mean of the two middle values for
// an even count), 0 for an empty slice.
func median(v []float64) float64 {
	_, med, _ := quartiles(v)
	return med
}

// minBeyond is the number of samples that must lie beyond a reported
// percentile; a tail estimated from fewer is noise.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 1) of the
// ascending slice sorted, lowered when necessary to the highest rank that
// still has minBeyond samples beyond it. eff is the percentile actually
// reported (== p when the sample is large enough). With minBeyond samples
// or fewer there is no defensible tail and the median is returned.
func percentile(sorted []float64, p float64) (value, eff float64) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	if n <= minBeyond {
		return sorted[(n-1)/2], 0.5
	}
	rank := int(math.Ceil(p * float64(n))) // 1-based nearest rank
	if rank < 1 {
		rank = 1
	}
	if max := n - minBeyond; rank > max {
		rank = max
	}
	return sorted[rank-1], float64(rank) / float64(n)
}
