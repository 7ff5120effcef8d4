package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// with fewer, the percentile is set by a handful of outliers and two runs
// of the same code disagree on it.
const minBeyond = 10

// percentile returns the q-quantile (0 < q < 1) of xs by the nearest-rank
// rule, and whether it may be reported: at least minBeyond samples must
// lie strictly beyond its rank. xs is sorted in place. Failed requests
// enter xs as +Inf, so a failure counts as missing every percentile.
func percentile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= n {
		rank = n - 1
	}
	return xs[rank], n-1-rank >= minBeyond
}

// median is the 0.5 percentile without the support rule (the middle of
// any sample is supported by half of it). It averages the two middle
// values of an even-sized sample, so a handful of runs gives a stable
// centre.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// sum adds xs.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
