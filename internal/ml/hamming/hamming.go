// Package hamming implements the paper's pure-HDC classifier (§II.C): a
// record hypervector is labeled with the class of its nearest neighbour
// under Hamming distance, validated with leave-one-out cross-validation.
// Prototype is the class-centroid variant the ablations compare against.
package hamming

import (
	"fmt"

	"hdfe/internal/hv"
	"hdfe/internal/metrics"
	"hdfe/internal/parallel"
)

// LeaveOneOut runs the paper's validation (§II.C): each record is labelled
// by its nearest neighbour among all the others, and the predictions are
// tallied into a confusion matrix. Rows fan out across workers, each
// recycling one distance buffer for all of its rows — the n×n distance
// matrix the seed implementation materialized is never allocated, so LOO's
// working memory is O(workers·n) instead of O(n²).
func LeaveOneOut(vs []hv.Vector, y []int) metrics.Confusion {
	if len(vs) != len(y) {
		panic(fmt.Sprintf("hamming: %d vectors but %d labels", len(vs), len(y)))
	}
	if len(vs) < 2 {
		panic("hamming: leave-one-out needs at least two records")
	}
	pred := make([]int, len(vs))
	parallel.ForChunked(len(vs), func(lo, hi int) {
		ds := make([]int, len(vs)) // per-worker, reused across rows
		for i := lo; i < hi; i++ {
			hv.DistancesSerial(vs[i], vs, ds)
			best, bestDist := -1, 0
			for j, d := range ds {
				if j == i {
					continue
				}
				if best == -1 || d < bestDist {
					best, bestDist = j, d
				}
			}
			pred[i] = y[best]
		}
	})
	return metrics.NewConfusion(y, pred)
}
