package main

import (
	"math"
	"sort"
)

// quantile is a nearest-rank percentile together with its sample count,
// so a report can say how many samples lie beyond it: a percentile with
// fewer than ten samples beyond it is not supported by the sample.
type quantile struct {
	P     float64
	Value float64
	// N is the number of samples; Beyond the number ranked above Value.
	N, Beyond int
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// xs; with no samples it returns N = 0 and Value 0.
func percentile(xs []float64, p float64) quantile {
	q := quantile{P: p, N: len(xs)}
	if len(xs) == 0 {
		return q
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	rank = min(max(rank, 1), len(s))
	q.Value = s[rank-1]
	q.Beyond = len(s) - rank
	return q
}

// median of a small sample (for repeated set-up timings).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
