package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1}, 2},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestMedianLeavesInputUnsorted(t *testing.T) {
	in := []float64{3, 1, 2}
	median(in)
	percentile(in, 90)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatalf("input reordered: %v", in)
	}
}

// seq returns n..1, so the helpers must sort: after sorting, the value
// at 0-based index i is i+1.
func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(n - i)
	}
	return out
}

func TestPercentileNearestRank(t *testing.T) {
	cases := []struct {
		n, p int
		want float64
	}{
		// n=20, p95: nearest rank is ceil(19) = 19, index 18 — the
		// value 19, not the maximum 20 that a floored rank gives.
		{20, 95, 19},
		{20, 90, 18},
		{20, 50, 10},
		{100, 90, 90},
		{100, 50, 50},
		{10, 90, 9},
		{1, 90, 1},
		{3, 50, 2},
		{3, 100, 3},
		{5, 1, 1},
	}
	for _, c := range cases {
		if got := percentile(seq(c.n), c.p); got != c.want {
			t.Errorf("percentile(1..%d, p%d) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	if got := percentile(nil, 90); got != 0 {
		t.Errorf("percentile(empty) = %v, want 0", got)
	}
}

func TestNearestRankBounds(t *testing.T) {
	for n := 1; n <= 64; n++ {
		for _, p := range []int{0, 1, 50, 90, 95, 99, 100} {
			i := nearestRank(n, p)
			if i < 0 || i >= n {
				t.Fatalf("nearestRank(%d, %d) = %d out of range", n, p, i)
			}
			// Nearest rank: the smallest 1-based rank r with
			// r ≥ p·n/100.
			r := float64(i + 1)
			if p > 0 && (r < float64(p*n)/100 || (i > 0 && float64(i) >= float64(p*n)/100)) {
				t.Fatalf("nearestRank(%d, %d) = %d is not the nearest rank", n, p, i)
			}
		}
	}
}

func TestRatio(t *testing.T) {
	if got := ratio(1, 0); got != 0 {
		t.Errorf("ratio(1, 0) = %v", got)
	}
	if got := ratio(3, 4); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("ratio(3, 4) = %v", got)
	}
}
