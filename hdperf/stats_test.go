package main

import (
	"math/rand"
	"sort"
	"testing"
)

// TestPercentileMatchesSortedOracle checks the nearest-rank percentile
// against its definition on sorted copies: the result is a sample, at
// least ⌈p·n⌉ samples are at or below it, and fewer are strictly below.
func TestPercentileMatchesSortedOracle(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	ps := []float64{0.01, 0.1, 0.25, 0.5, 0.9, 0.95, 0.99, 1}
	for _, n := range []int{1, 2, 3, 4, 10, 20, 99, 100, 1000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(r.Intn(50)) // ties included
		}
		orig := append([]float64(nil), xs...)
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		for _, p := range ps {
			got := percentile(xs, p)
			rank := 0 // ⌈p·n⌉ without float rounding: the least k with k ≥ p·n
			for float64(rank) < p*float64(n)-1e-9 {
				rank++
			}
			rank = max(rank, 1)
			if want := sorted[rank-1]; got != want {
				t.Errorf("n=%d p=%v: percentile %v, sorted oracle %v", n, p, got, want)
			}
			atOrBelow, below := 0, 0
			for _, x := range sorted {
				if x <= got {
					atOrBelow++
				}
				if x < got {
					below++
				}
			}
			if atOrBelow < rank || below >= rank {
				t.Errorf("n=%d p=%v: %v has %d samples at or below and %d below, want ≥%d and <%d", n, p, got, atOrBelow, below, rank, rank)
			}
		}
		for i := range xs {
			if xs[i] != orig[i] {
				t.Fatalf("n=%d: percentile reordered its input", n)
			}
		}
	}
}

func TestPercentileWholeRank(t *testing.T) {
	// 0.9·10 is 9.000000000000002 in floating point; the rank is still 9.
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got := percentile(xs, 0.9); got != 9 {
		t.Errorf("p90 of 1..10 = %v, want 9", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestMidRateDropsOutlyingSlices(t *testing.T) {
	// Eight slices at rate 2 and one very slow and one very fast slice:
	// the middle half pools only rate-2 slices.
	num := []float64{2, 4, 6, 2, 100, 4, 2, 0, 6, 8}
	den := []float64{1, 2, 3, 1, 1, 2, 1, 10, 3, 4}
	if got := midRate(num, den); got != 2 {
		t.Errorf("midRate = %v, want 2", got)
	}
	// With fewer than four slices nothing is dropped.
	if got := midRate([]float64{1, 3}, []float64{1, 1}); got != 2 {
		t.Errorf("midRate of two slices = %v, want their pooled rate 2", got)
	}
}

func TestMedianOf(t *testing.T) {
	groups := [][]float64{{1, 2, 3}, {10, 20, 30}, {}, {4, 5, 6}}
	if got := medianOf(groups, 0.5); got != 5 {
		t.Errorf("median of group medians = %v, want 5", got)
	}
}
