package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile: a
// tail figure resting on fewer is noise, so it is not reported.
const minBeyond = 10

// percentile returns the q-quantile (0 < q < 1) of xs by the nearest-rank
// rule, and whether at least minBeyond samples lie beyond that rank. xs
// must be sorted ascending.
func percentile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i], n-1-i >= minBeyond
}

// median of sorted xs by the nearest-rank rule.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	v, _ := percentile(xs, 0.5)
	return v
}

// msSorted converts latencies to sorted milliseconds.
func msSorted(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

// medianOf returns the median of unsorted values.
func medianOf(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return median(s)
}

// ratio divides, reporting 0 for an empty denominator.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
