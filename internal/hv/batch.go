package hv

import (
	"math/bits"

	"hdfe/internal/parallel"
)

// Distances computes Hamming(query, pool[i]) for all i in parallel and
// writes them into dst (allocated if nil/short). Nearest and NearestK use
// it for single-query search.
func Distances(query Vector, pool []Vector, dst []int) []int {
	if cap(dst) < len(pool) {
		dst = make([]int, len(pool))
	}
	dst = dst[:len(pool)]
	parallel.ForChunked(len(pool), func(lo, hi int) {
		distancesRange(query, pool, dst, lo, hi)
	})
	return dst
}

// DistancesSerial is the single-goroutine form of Distances: it fills dst
// (allocated if nil/short) on the calling goroutine only. Use it with a
// per-worker dst inside loops that are already parallel — leave-one-out
// recycles one dst slice per worker this way instead of allocating (or
// nesting parallelism) per query.
func DistancesSerial(query Vector, pool []Vector, dst []int) []int {
	if cap(dst) < len(pool) {
		dst = make([]int, len(pool))
	}
	dst = dst[:len(pool)]
	distancesRange(query, pool, dst, 0, len(pool))
	return dst
}

func distancesRange(query Vector, pool []Vector, dst []int, lo, hi int) {
	qw := query.words
	for i := lo; i < hi; i++ {
		checkSameDim(query, pool[i])
		pw := pool[i].words
		d := 0
		for k, x := range qw {
			d += bits.OnesCount64(x ^ pw[k])
		}
		dst[i] = d
	}
}

// Nearest returns the index of the pool vector closest to query under
// Hamming distance, skipping index exclude (pass -1 to consider all), and
// the distance itself. Ties resolve to the lowest index, which makes
// recall deterministic. It panics if the pool is empty or the only
// candidate is excluded.
func Nearest(query Vector, pool []Vector, exclude int) (idx, dist int) {
	ds := Distances(query, pool, nil)
	idx = -1
	for i, d := range ds {
		if i == exclude {
			continue
		}
		if idx == -1 || d < dist {
			idx, dist = i, d
		}
	}
	if idx == -1 {
		panic("hv: Nearest with no candidates")
	}
	return idx, dist
}

// NearestK returns the indices of the k nearest pool vectors to query under
// Hamming distance in ascending distance order (ties by index), skipping
// exclude. If fewer than k candidates exist, all are returned.
func NearestK(query Vector, pool []Vector, exclude, k int) []int {
	ds := Distances(query, pool, nil)
	type cand struct{ idx, dist int }
	cands := make([]cand, 0, len(pool))
	for i, d := range ds {
		if i == exclude {
			continue
		}
		cands = append(cands, cand{i, d})
	}
	// Partial selection sort: k is tiny (classification k ∈ {1..25}).
	if k > len(cands) {
		k = len(cands)
	}
	for i := 0; i < k; i++ {
		best := i
		for j := i + 1; j < len(cands); j++ {
			if cands[j].dist < cands[best].dist ||
				(cands[j].dist == cands[best].dist && cands[j].idx < cands[best].idx) {
				best = j
			}
		}
		cands[i], cands[best] = cands[best], cands[i]
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = cands[i].idx
	}
	return out
}
