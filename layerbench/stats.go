package main

import (
	"sort"
	"time"
)

// median returns the middle of xs (the mean of the two middle values
// for an even count), or 0 for an empty sample. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of xs: the
// smallest sample whose rank r satisfies r ≥ p/100·n, i.e. the
// 0-based index ceil(p·n/100)−1. For n=20 and p=95 that is index 18,
// not the maximum. Empty samples give 0. xs is not modified.
func percentile(xs []float64, p int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	return s[nearestRank(len(s), p)]
}

// nearestRank is the 0-based index of the nearest-rank p-th
// percentile in a sorted sample of n ≥ 1 values.
func nearestRank(n, p int) int {
	i := (n*p+99)/100 - 1
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// millis converts durations to float milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// micros converts durations to float microseconds.
func micros(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Microsecond)
	}
	return out
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
