// Package knn implements the k-nearest-neighbours classifier (Fix & Hodges
// 1951), one of the paper's comparison models. Distances are Euclidean;
// prediction is an unweighted majority vote over the k nearest training
// rows with ties resolved toward the positive class, matching the
// repository-wide tie convention.
package knn

import (
	"fmt"
	"sort"

	"hdfe/internal/ml"
	"hdfe/internal/parallel"
)

// Classifier is a k-NN model. The zero value is not usable; construct with
// New.
type Classifier struct {
	k     int
	x     [][]float64
	y     []int
	width int
}

var _ ml.Classifier = (*Classifier)(nil)

// New returns a k-NN classifier with the given neighbourhood size. The
// paper's comparators use sklearn's default k = 5. It panics if k < 1.
func New(k int) *Classifier {
	if k < 1 {
		panic(fmt.Sprintf("knn: k = %d", k))
	}
	return &Classifier{k: k}
}

// Fit memorizes the training set (k-NN is a lazy learner).
func (c *Classifier) Fit(X [][]float64, y []int) error {
	if err := ml.ValidateFit(X, y); err != nil {
		return err
	}
	if c.k > len(X) {
		return fmt.Errorf("knn: k=%d exceeds %d training rows", c.k, len(X))
	}
	// Copy rows so later caller mutation cannot corrupt the model.
	c.x = make([][]float64, len(X))
	for i, row := range X {
		c.x[i] = append([]float64(nil), row...)
	}
	c.y = append([]int(nil), y...)
	c.width = len(X[0])
	return nil
}

// Predict labels each row by majority vote among its k nearest training
// rows. Rows are processed in parallel.
func (c *Classifier) Predict(X [][]float64) []int {
	scores := c.Scores(X)
	out := make([]int, len(scores))
	for i, s := range scores {
		if s >= 0.5 {
			out[i] = 1
		}
	}
	return out
}

// Scores returns the fraction of positive neighbours per query row.
func (c *Classifier) Scores(X [][]float64) []float64 {
	if c.x == nil {
		panic("knn: predict before fit")
	}
	ml.CheckPredict(X, c.width)
	out := make([]float64, len(X))
	parallel.For(len(X), func(i int) {
		out[i] = c.score(X[i])
	})
	return out
}

func (c *Classifier) score(q []float64) float64 {
	type cand struct {
		d2  float64
		idx int
	}
	cands := make([]cand, len(c.x))
	for i, row := range c.x {
		var d2 float64
		for j, v := range row {
			diff := v - q[j]
			d2 += diff * diff
		}
		cands[i] = cand{d2, i}
	}
	// Deterministic neighbour choice: distance, then training index.
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].d2 != cands[b].d2 {
			return cands[a].d2 < cands[b].d2
		}
		return cands[a].idx < cands[b].idx
	})
	pos := 0
	for _, cd := range cands[:c.k] {
		pos += c.y[cd.idx]
	}
	return float64(pos) / float64(c.k)
}
