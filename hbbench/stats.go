package main

import (
	"math"
	"sort"
)

// tailLadder is the set of percentiles a timing may be reported at,
// lowest first.
var tailLadder = []float64{50, 90, 95, 99, 99.9, 99.99}

// tailPercentile returns the highest ladder percentile that leaves at
// least 10 of n samples beyond it, and false when even the median does
// not (n < 20): a tail figure resting on fewer than ten samples is noise.
func tailPercentile(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range tailLadder {
		if float64(n)*(1-p/100) >= 10-1e-9 {
			best, ok = p, true
		}
	}
	return best, ok
}

// percentile is the nearest-rank percentile of sorted samples (p in
// [0,100]); 0 for no samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median is the midpoint of the samples (mean of the middle two for an
// even count); 0 for no samples. The input is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
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
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// timing summarizes one set of duration samples the way every timing is
// reported: median, the highest percentile with at least ten samples
// beyond it, and the sample count.
type timing struct {
	N      int
	Median float64
	TailP  float64 // 0 when n is too small for any tail percentile
	Tail   float64
}

func summarize(xs []float64) timing {
	t := timing{N: len(xs), Median: median(xs)}
	if p, ok := tailPercentile(len(xs)); ok {
		t.TailP, t.Tail = p, percentile(sortedCopy(xs), p)
	}
	return t
}
