// Package boost implements gradient-boosted decision trees with logistic
// loss in the three styles the paper compares against:
//
//   - LevelWise: level-wise trees with second-order gain and L2 leaf
//     regularization (XGBoost's core algorithm; Chen & Guestrin 2016).
//   - LeafWise: histogram-based, leaf-wise (best-first) growth capped by
//     leaf count (LightGBM's core algorithm; Ke et al. 2017).
//   - Oblivious: oblivious (symmetric) trees, where every node at a level
//     shares one split (CatBoost's tree shape; Dorogush et al. 2018). The
//     datasets here have no categorical features and ordered boosting is
//     out of scope, so the oblivious shape is the distinguishing element.
//
// All three share one quantized view of the data (tree.Bin), one gradient
// routine, and one second-order split-gain formula; they differ only in how
// trees grow. Histograms for sibling nodes are computed in parallel.
package boost

import (
	"fmt"
	"math"

	"hdfe/internal/ml"
	"hdfe/internal/ml/tree"
	"hdfe/internal/parallel"
	"hdfe/internal/rng"
)

// Style selects the tree-growth strategy.
type Style int

const (
	// LevelWise grows each tree breadth-first to MaxDepth (XGBoost).
	LevelWise Style = iota
	// LeafWise repeatedly splits the highest-gain leaf up to MaxLeaves
	// (LightGBM).
	LeafWise
	// Oblivious grows symmetric trees: one shared split per level
	// (CatBoost).
	Oblivious
)

// String returns the style name.
func (s Style) String() string {
	switch s {
	case LevelWise:
		return "level-wise"
	case LeafWise:
		return "leaf-wise"
	case Oblivious:
		return "oblivious"
	default:
		return fmt.Sprintf("Style(%d)", int(s))
	}
}

// Params configures a boosted ensemble.
type Params struct {
	Style Style
	// Rounds is the number of boosting iterations (trees).
	Rounds int
	// LearningRate shrinks each tree's contribution.
	LearningRate float64
	// MaxDepth bounds LevelWise and Oblivious trees.
	MaxDepth int
	// MaxLeaves bounds LeafWise trees.
	MaxLeaves int
	// Lambda is the L2 regularization on leaf weights.
	Lambda float64
	// Gamma is the minimum split gain.
	Gamma float64
	// MinChildWeight is the minimum hessian sum per child.
	MinChildWeight float64
	// Subsample is the per-round row sampling fraction (1 = all rows).
	Subsample float64
	// Seed drives subsampling.
	Seed uint64
}

// gbNode is a node of a fitted boosting tree; leaves have feature -1 and
// carry the shrunken leaf value.
type gbNode struct {
	feature   int
	threshold float64
	left      int
	right     int
	value     float64
}

// gbTree is one fitted regression tree (nodes[0] is the root).
type gbTree struct {
	nodes []gbNode
}

func (t *gbTree) scoreRow(row []float64) float64 {
	cur := 0
	for {
		nd := t.nodes[cur]
		if nd.feature == -1 {
			return nd.value
		}
		if row[nd.feature] <= nd.threshold {
			cur = nd.left
		} else {
			cur = nd.right
		}
	}
}

// Classifier is a fitted gradient-boosted ensemble.
type Classifier struct {
	params Params
	trees  []gbTree
	base   float64
	width  int
}

var _ ml.Classifier = (*Classifier)(nil)

// New returns an untrained booster with explicit parameters; tables.Zoo
// holds the paper-matching settings for each style.
func New(p Params) *Classifier {
	if p.Rounds <= 0 {
		p.Rounds = 100
	}
	if p.LearningRate <= 0 {
		p.LearningRate = 0.1
	}
	if p.MaxDepth <= 0 {
		p.MaxDepth = 6
	}
	if p.MaxLeaves <= 0 {
		p.MaxLeaves = 31
	}
	if p.Subsample <= 0 || p.Subsample > 1 {
		p.Subsample = 1
	}
	return &Classifier{params: p}
}

// Fit trains the ensemble with logistic loss: each round fits a tree to
// the current gradients/hessians and adds its shrunken predictions.
func (c *Classifier) Fit(X [][]float64, y []int) error {
	if err := ml.ValidateFit(X, y); err != nil {
		return err
	}
	n := len(X)
	c.width = len(X[0])
	binned := tree.Bin(X)

	// Prior log-odds as base score (clamped away from infinities for
	// single-class training sets).
	pos := 0
	for _, label := range y {
		pos += label
	}
	p := (float64(pos) + 0.5) / (float64(n) + 1)
	c.base = math.Log(p / (1 - p))

	F := make([]float64, n)
	for i := range F {
		F[i] = c.base
	}
	g := make([]float64, n)
	h := make([]float64, n)
	r := rng.New(c.params.Seed)
	c.trees = c.trees[:0]

	for round := 0; round < c.params.Rounds; round++ {
		for i := range F {
			pi := ml.Sigmoid(F[i])
			g[i] = pi - float64(y[i])
			h[i] = pi * (1 - pi)
		}
		rows := c.sampleRows(n, r)
		var t gbTree
		switch c.params.Style {
		case LevelWise:
			t = c.growLevelWise(binned, rows, g, h)
		case LeafWise:
			t = c.growLeafWise(binned, rows, g, h)
		case Oblivious:
			t = c.growOblivious(binned, rows, g, h)
		default:
			return fmt.Errorf("boost: unknown style %v", c.params.Style)
		}
		c.trees = append(c.trees, t)
		for i, row := range X {
			F[i] += t.scoreRow(row)
		}
	}
	return nil
}

func (c *Classifier) sampleRows(n int, r *rng.Source) []int {
	if c.params.Subsample >= 1 {
		rows := make([]int, n)
		for i := range rows {
			rows[i] = i
		}
		return rows
	}
	k := int(c.params.Subsample * float64(n))
	if k < 1 {
		k = 1
	}
	return r.Perm(n)[:k]
}

// Predict thresholds the predicted probability at 0.5.
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

// Scores returns sigmoid of the ensemble margin per row.
func (c *Classifier) Scores(X [][]float64) []float64 {
	margins := c.Margins(X)
	for i, m := range margins {
		margins[i] = ml.Sigmoid(m)
	}
	return margins
}

// Margins returns the raw additive ensemble output per row.
func (c *Classifier) Margins(X [][]float64) []float64 {
	if c.trees == nil {
		panic("boost: predict before fit")
	}
	ml.CheckPredict(X, c.width)
	out := make([]float64, len(X))
	parallel.For(len(X), func(i int) {
		m := c.base
		for ti := range c.trees {
			m += c.trees[ti].scoreRow(X[i])
		}
		out[i] = m
	})
	return out
}

// NumTrees returns the number of fitted rounds.
func (c *Classifier) NumTrees() int { return len(c.trees) }

// String identifies the model in experiment tables.
func (c *Classifier) String() string {
	return fmt.Sprintf("Boost(%v,rounds=%d,lr=%g)", c.params.Style, c.params.Rounds, c.params.LearningRate)
}
