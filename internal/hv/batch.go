package hv

import "math/bits"

// DistancesSerial computes Hamming(query, pool[i]) for all i into dst
// (allocated if nil/short) on the calling goroutine only. Use it with a
// per-worker dst inside loops that are already parallel — leave-one-out
// recycles one dst slice per worker this way instead of allocating (or
// nesting parallelism) per query.
func DistancesSerial(query Vector, pool []Vector, dst []int) []int {
	if cap(dst) < len(pool) {
		dst = make([]int, len(pool))
	}
	dst = dst[:len(pool)]
	qw := query.words
	for i, p := range pool {
		checkSameDim(query, p)
		d := 0
		for k, x := range qw {
			d += bits.OnesCount64(x ^ p.words[k])
		}
		dst[i] = d
	}
	return dst
}
