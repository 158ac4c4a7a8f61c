package main

import (
	"math"
	"sort"
)

// percentile returns the p-quantile (0..1) of sorted by nearest rank.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 {
	s := sortedCopy(v)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// bestOf returns, for every position of the operation sequence that the
// samples repeat pass after pass, the fastest of its repetitions in
// milliseconds.
//
// This machine is a few cores of a shared host: for seconds or minutes at a
// time a neighbour makes everything 20-60 % slower, in bursts that leave
// gaps. Interference only ever adds time, so the fastest of k repetitions
// of the same operation estimates what the program itself costs, and a
// median over positions of those keeps every input in the estimate; a
// median over all samples mostly reports the neighbour.
func bestOf(samples []sample) map[int]float64 {
	best := make(map[int]float64)
	for _, s := range samples {
		if b, ok := best[s.pos]; !ok || s.ms < b {
			best[s.pos] = s.ms
		}
	}
	return best
}

// tailPercentile returns the highest of p50, p90, p95, p99 and p99.9
// that still has at least ten of n samples beyond it, or 0 when n is too
// small for any of them.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, permille := range []int{500, 900, 950, 990, 999} {
		if n*(1000-permille) >= 10*1000 {
			best = float64(permille) / 1000
		}
	}
	return best
}

// quartiles returns Q1, Q2, Q3 as Python's statistics.quantiles(v, n=4)
// (the exclusive method) gives them; v needs at least two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the distance between the first and third quartile of v as a
// share of its median: the driver's measure of run-to-run noise. Fewer
// than four values fall back to (max - min) / median; one value has none.
func spread(v []float64) float64 {
	med := median(v)
	if len(v) < 2 || med == 0 {
		return 0
	}
	if len(v) < 4 {
		s := sortedCopy(v)
		return math.Abs((s[len(s)-1] - s[0]) / med)
	}
	q1, _, q3 := quartiles(v)
	return math.Abs((q3 - q1) / med)
}
