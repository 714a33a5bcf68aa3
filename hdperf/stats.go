package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-quantile of xs (0 < p <= 1): the
// smallest sample with at least p·len(xs) samples at or below it. xs is
// left unchanged. An empty slice gives 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	// The epsilon keeps p·n that is whole in exact arithmetic, such as
	// 0.9·10, from rounding up a rank.
	k := int(math.Ceil(p*float64(len(s)) - 1e-9))
	k = max(1, min(k, len(s)))
	return s[k-1]
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// medianOf is the median over groups of each group's p-quantile.
func medianOf(groups [][]float64, p float64) float64 {
	qs := make([]float64, 0, len(groups))
	for _, g := range groups {
		if len(g) > 0 {
			qs = append(qs, percentile(g, p))
		}
	}
	return percentile(qs, 0.5)
}

// midRate pools the middle half of the slices ranked by num/den and
// returns their total num over their total den. Dropping the quarter
// with the lowest and the quarter with the highest rate keeps a burst of
// host noise out, while pooling several slices keeps the resolution of
// counters that tick coarsely, such as CPU time in 10ms units.
func midRate(num, den []float64) float64 {
	idx := make([]int, len(num))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		return ratio(num[idx[a]], den[idx[a]]) < ratio(num[idx[b]], den[idx[b]])
	})
	q := len(idx) / 4
	var n, d float64
	for _, i := range idx[q : len(idx)-q] {
		n += num[i]
		d += den[i]
	}
	return ratio(n, d)
}
