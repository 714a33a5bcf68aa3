package hv

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
	for i, p := range pool {
		dst[i] = Hamming(query, p)
	}
	return dst
}
