package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile:
// fewer, and the percentile is set by a handful of outliers.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of xs, and
// an error when fewer than minBeyond samples lie above it.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(q * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want >= %d", q*100, n, n-rank, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// minSamples is the smallest sample count for which percentile(q)
// succeeds.
func minSamples(q float64) int {
	n := minBeyond
	for n-int(math.Ceil(q*float64(n))) < minBeyond {
		n++
	}
	return n
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); used for set-up repetitions, where every
// sample counts and no tail is reported.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
