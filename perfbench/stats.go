package main

import (
	"math"
	"sort"
	"time"
)

// summary is one timing series reduced to what the benchmark reports: the
// median and the tail, with the sample count and the percentile the tail
// stands for.
type summary struct {
	N       int
	P50     float64
	Tail    float64
	TailPct float64
}

// summarize reduces xs (any unit) to its median and tail. xs is sorted in
// place.
func summarize(xs []float64) summary {
	sort.Float64s(xs)
	s := summary{N: len(xs), P50: median(xs)}
	s.TailPct, s.Tail = tail(xs)
	return s
}

// tail is the highest percentile with at least ten samples beyond it, by
// nearest rank: with n sorted samples that is the value at rank n-10
// (ten samples above it), standing for percentile 100*(n-10)/n. It never
// drops below the median: with 20 samples or fewer no percentile above
// p50 has ten samples beyond it, and the median is reported as the tail.
func tail(sorted []float64) (pct, v float64) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	if n <= 20 {
		return 50, median(sorted)
	}
	return 100 * float64(n-10) / float64(n), sorted[n-11]
}

// median of a sorted slice; 0 when empty.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// medianOf sorts a copy of xs and returns its median.
func medianOf(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	return median(c)
}

// quantile is the nearest-rank q-quantile (0 < q <= 1) of a sorted slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0 (a share of an empty base).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
