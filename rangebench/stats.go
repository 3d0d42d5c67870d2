package main

import (
	"math"
	"sort"
	"time"
)

// tailLadder holds the percentiles a tail is read at, highest first. The
// tail of a timing is the highest of them with at least minBeyond samples
// above it; below 2*minBeyond samples even the median has fewer, and the
// median stands in.
var tailLadder = []float64{99.99, 99.9, 99, 95, 90, 75, 50}

const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of sorted: the
// smallest sample with at least p% of the samples at or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rankOf(len(sorted), p)]
}

// rankOf is the zero-based index percentile reads for n samples.
func rankOf(n int, p float64) int {
	k := int(math.Ceil(p*float64(n)/100-1e-9)) - 1 // tolerate p*n/100 rounding up past an integer
	if k < 0 {
		k = 0
	}
	if k >= n {
		k = n - 1
	}
	return k
}

// tail applies the tail rule to sorted samples and returns the percentile
// used, its value and how many samples lie beyond it.
func tail(sorted []float64) (p, value float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 50, math.NaN(), 0
	}
	for _, p := range tailLadder {
		if b := n - 1 - rankOf(n, p); b >= minBeyond {
			return p, sorted[rankOf(n, p)], b
		}
	}
	return 50, percentile(sorted, 50), n - 1 - rankOf(n, 50)
}

// median of unsorted samples.
func median(xs []float64) float64 {
	return percentile(sortedCopy(xs), 50)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = millis(d)
	}
	return out
}
