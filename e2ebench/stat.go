package main

import (
	"errors"
	"math"
	"sort"
)

// The order statistics the benchmark and its compare mode share:
// nearest-rank percentiles with the ten-samples-beyond rule, medians, and
// quartiles computed exactly as Python's statistics.quantiles(values,
// n=4) computes them, so that spreads read the same here and in any
// script that checks them.

// minBeyond is the number of samples that must lie above a reported
// percentile; a percentile with fewer is noise in the last few samples.
const minBeyond = 10

// sortedCopy returns a sorted copy of xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// rank is the 0-based nearest-rank index of percentile p in n samples.
func rank(p float64, n int) int {
	i := int(math.Ceil(p/100*float64(n))) - 1
	return max(0, min(i, n-1))
}

// beyond reports how many of n samples lie above the nearest-rank
// p-th percentile.
func beyond(p float64, n int) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rank(p, n)
}

// percentile returns the nearest-rank p-th percentile of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(p, len(sorted))]
}

// tailLadder lists the percentiles a tail may be reported at, highest
// first. p99 is left out on purpose: with a few thousand samples it
// qualifies, yet it swings far more between identical runs than p90.
var tailLadder = []float64{90, 75, 50}

// errTooFew is returned when not even the median has minBeyond samples
// above it.
var errTooFew = errors.New("too few samples for any percentile with ten beyond it")

// tailPercentile picks the highest percentile in tailLadder with at
// least minBeyond of n samples beyond it.
func tailPercentile(n int) (float64, error) {
	for _, p := range tailLadder {
		if beyond(p, n) >= minBeyond {
			return p, nil
		}
	}
	return 0, errTooFew
}

// median returns the median of xs (the mean of the middle pair for an
// even count), or NaN for no samples.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartiles of xs with the
// "exclusive" method of Python's statistics.quantiles(xs, n=4). It needs
// at least two samples.
func quartiles(xs []float64) (q1, q3 float64, err error) {
	s := sortedCopy(xs)
	ld := len(s)
	if ld < 2 {
		return 0, 0, errors.New("quartiles need at least two samples")
	}
	const n = 4
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut(1), cut(3), nil
}
