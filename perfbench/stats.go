package main

import (
	"math"
	"sort"
)

// minBeyond is the number of samples a reported percentile must have beyond
// it: p99 needs 1,000 samples, p90 needs 100, the median 20.
const minBeyond = 10

// percentiles are the tail percentiles the benchmark names metrics after.
var percentiles = []float64{50, 90, 95, 99}

// supported reports whether percentile p of n samples has at least
// minBeyond samples beyond it.
func supported(n int, p float64) bool {
	return float64(n)*(100-p)/100 >= minBeyond-1e-9
}

// highestSupported returns the highest of percentiles that n samples
// support, or 0 when not even the median has minBeyond samples beyond it.
func highestSupported(n int) float64 {
	best := 0.0
	for _, p := range percentiles {
		if supported(n, p) {
			best = p
		}
	}
	return best
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear interpolation
// between closest ranks. xs need not be sorted; it is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
