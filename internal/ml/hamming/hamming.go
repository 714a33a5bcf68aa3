// Package hamming implements the paper's pure-HDC classifier (§II.C): a
// record hypervector is labeled with the class of its nearest neighbour
// under Hamming distance, validated with leave-one-out cross-validation.
// The class-prototype classifier the ablations compare it with is the
// served model itself (core.Prototypes and core.ClassAffinity).
package hamming

import (
	"fmt"
	"math"
	"sync/atomic"

	"hdfe/internal/hv"
	"hdfe/internal/metrics"
	"hdfe/internal/parallel"
)

// tile is the side, in records, of the square tiles the distance
// triangle is cut into. Two tiles of D = 10,000 vectors are 40 KB, which
// a 48 KB L1d holds while a worker computes the tile's 256 distances.
const tile = 16

// LeaveOneOut runs the paper's validation (§II.C): each record is labelled
// by its nearest neighbour among all the others (the first one on a tie),
// and the predictions are tallied into a confusion matrix. The n×n
// distance matrix is never materialized: see nearestOthers.
func LeaveOneOut(vs []hv.Vector, y []int) metrics.Confusion {
	if len(vs) != len(y) {
		panic(fmt.Sprintf("hamming: %d vectors but %d labels", len(vs), len(y)))
	}
	if len(vs) < 2 {
		panic("hamming: leave-one-out needs at least two records")
	}
	pred := make([]int, len(vs))
	for i, j := range nearestOthers(vs) {
		pred[i] = y[j]
	}
	return metrics.NewConfusion(y, pred)
}

// neighbour is the nearest other record seen so far.
type neighbour struct{ dist, idx int }

// offer keeps (dist, idx) if it is the lexicographic minimum: a nearer
// record, or an equally near one with a lower index.
func (nb *neighbour) offer(dist, idx int) {
	if dist < nb.dist || dist == nb.dist && idx < nb.idx {
		nb.dist, nb.idx = dist, idx
	}
}

// nearestOthers returns, for each of vs (at least two), the index of its
// nearest other record under Hamming distance, the lowest such index on a
// tie. Each unordered pair is computed once: the upper triangle of the
// distance matrix is cut into tile×tile squares, which workers take one
// at a time from an atomic counter, so a worker that loses its CPU holds
// back only the tile it has. Each worker keeps its own nearest (distance,
// index) per record; since the minimum is lexicographic, merging them
// gives the same answer whichever worker took which tile.
func nearestOthers(vs []hv.Vector) []int {
	for i, v := range vs {
		if v.Dim() != vs[0].Dim() {
			panic(fmt.Sprintf("hamming: vector %d has dimension %d, vector 0 has %d", i, v.Dim(), vs[0].Dim()))
		}
	}
	tiles := triangleTiles(len(vs))
	near := make([][]neighbour, parallel.Workers(len(tiles)))
	var next atomic.Int64
	parallel.For(len(near), func(w int) {
		nb := unseen(len(vs))
		for t := int(next.Add(1) - 1); t < len(tiles); t = int(next.Add(1) - 1) {
			scanTile(vs, tiles[t], nb)
		}
		near[w] = nb
	})
	return merge(near)
}

// triangleTiles lists the tiles of the upper triangle of an n×n distance
// matrix, each as the first record of its row tile and of its column tile.
func triangleTiles(n int) [][2]int {
	var tiles [][2]int
	for a := 0; a < n; a += tile {
		for b := a; b < n; b += tile {
			tiles = append(tiles, [2]int{a, b})
		}
	}
	return tiles
}

// unseen returns n neighbours that any real record beats.
func unseen(n int) []neighbour {
	nb := make([]neighbour, n)
	for i := range nb {
		nb[i] = neighbour{math.MaxInt, -1}
	}
	return nb
}

// scanTile computes the distance of every pair i < j with i in the row
// tile and j in the column tile, and offers it to both records.
func scanTile(vs []hv.Vector, t [2]int, nb []neighbour) {
	a, b := t[0], t[1]
	aEnd, bEnd := min(a+tile, len(vs)), min(b+tile, len(vs))
	for i := a; i < aEnd; i++ {
		j := b
		if a == b {
			j = i + 1
		}
		for ; j < bEnd; j++ {
			d := hv.Hamming(vs[i], vs[j])
			nb[i].offer(d, j)
			nb[j].offer(d, i)
		}
	}
}

// merge returns each record's lexicographic minimum over the workers'
// neighbours.
func merge(near [][]neighbour) []int {
	out := make([]int, len(near[0]))
	for i := range out {
		nb := near[0][i]
		for _, other := range near[1:] {
			nb.offer(other[i].dist, other[i].idx)
		}
		out[i] = nb.idx
	}
	return out
}
