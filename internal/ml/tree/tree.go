package tree

import (
	"fmt"
	"math"

	"hdfe/internal/ml"
	"hdfe/internal/rng"
)

// minSamplesSplit is the minimum node size eligible for splitting
// (sklearn's default).
const minSamplesSplit = 2

// Params configures a CART classifier. Zero values mean sklearn-like
// defaults: unlimited depth, MinSamplesLeaf 1, all features considered at
// every node.
type Params struct {
	// MaxDepth limits tree depth; 0 means unlimited.
	MaxDepth int
	// MinSamplesLeaf is the minimum number of samples in each child.
	MinSamplesLeaf int
	// MaxFeatures is the number of features sampled (without replacement)
	// as split candidates at each node; 0 means all features. Random
	// forests set this to sqrt(width).
	MaxFeatures int
	// Seed drives feature subsampling when MaxFeatures > 0.
	Seed uint64
}

func (p Params) normalized() Params {
	if p.MinSamplesLeaf < 1 {
		p.MinSamplesLeaf = 1
	}
	return p
}

// node is one tree node; leaves have feature == -1.
type node struct {
	feature   int
	threshold float64 // raw-value threshold: v <= threshold goes left
	left      int     // child indices into Classifier.nodes
	right     int
	// posFraction is the training positive-class fraction at the node
	// (the leaf score).
	posFraction float64
	// importance is the weighted Gini decrease this split achieved
	// (samples/n * (parentGini - weighted child Gini)); 0 for leaves.
	importance float64
}

// Classifier is a CART decision tree for binary classification using Gini
// impurity.
type Classifier struct {
	params Params
	nodes  []node
	width  int
	total  int // training rows of the last fit (importance normalizer)
}

var _ ml.Classifier = (*Classifier)(nil)

// New returns an untrained tree with the given parameters.
func New(p Params) *Classifier { return &Classifier{params: p.normalized()} }

// Fit quantizes X and grows the tree on all rows.
func (t *Classifier) Fit(X [][]float64, y []int) error {
	if err := ml.ValidateFit(X, y); err != nil {
		return err
	}
	b := Bin(X)
	rows := make([]int, len(X))
	for i := range rows {
		rows[i] = i
	}
	t.FitBinned(b, y, rows)
	return nil
}

// FitBinned grows the tree on the given pre-quantized data, restricted to
// the given rows (which may repeat, as in a bootstrap sample). Ensembles
// use this entry point to share one Binned across many trees.
func (t *Classifier) FitBinned(b *Binned, y []int, rows []int) {
	if len(rows) == 0 {
		panic("tree: fit with no rows")
	}
	if len(y) != b.Rows() {
		panic(fmt.Sprintf("tree: %d labels for %d binned rows", len(y), b.Rows()))
	}
	t.width = b.Width()
	t.nodes = t.nodes[:0]
	t.total = len(rows)
	r := rng.New(t.params.Seed)
	t.grow(b, y, append([]int(nil), rows...), 0, r)
}

// grow builds the subtree over rows and returns its node index.
func (t *Classifier) grow(b *Binned, y []int, rows []int, depth int, r *rng.Source) int {
	pos := 0
	for _, i := range rows {
		pos += y[i]
	}
	n := len(rows)
	idx := len(t.nodes)
	t.nodes = append(t.nodes, node{feature: -1, posFraction: float64(pos) / float64(n)})

	if pos == 0 || pos == n || n < minSamplesSplit ||
		(t.params.MaxDepth > 0 && depth >= t.params.MaxDepth) {
		return idx
	}
	feat, bin, ok := t.bestSplit(b, y, rows, pos, r)
	if !ok {
		return idx
	}
	// Partition rows in place around the split.
	col := b.cols[feat]
	lo, hi := 0, n
	for lo < hi {
		if int(col[rows[lo]]) <= bin {
			lo++
		} else {
			hi--
			rows[lo], rows[hi] = rows[hi], rows[lo]
		}
	}
	left := rows[:lo]
	right := rows[lo:]
	leftPos := 0
	for _, i := range left {
		leftPos += y[i]
	}
	childGini := (float64(len(left))*giniOf(leftPos, len(left)) +
		float64(len(right))*giniOf(pos-leftPos, len(right))) / float64(n)
	t.nodes[idx].feature = feat
	t.nodes[idx].threshold = b.Threshold(feat, bin)
	t.nodes[idx].importance = float64(n) / float64(t.total) * (giniOf(pos, n) - childGini)
	t.nodes[idx].left = t.grow(b, y, left, depth+1, r)
	t.nodes[idx].right = t.grow(b, y, right, depth+1, r)
	return idx
}

// FeatureImportances returns the normalized mean-decrease-in-impurity
// importance per feature (summing to 1 when any split occurred; all zeros
// for a stump). This matches sklearn's feature_importances_ definition.
func (t *Classifier) FeatureImportances() []float64 {
	if len(t.nodes) == 0 {
		panic("tree: importances before fit")
	}
	imp := make([]float64, t.width)
	var sum float64
	for _, nd := range t.nodes {
		if nd.feature >= 0 {
			imp[nd.feature] += nd.importance
			sum += nd.importance
		}
	}
	if sum > 0 {
		for j := range imp {
			imp[j] /= sum
		}
	}
	return imp
}

// bestSplit scans candidate features and returns the (feature, bin) pair
// with the lowest weighted child Gini. ok is false when no split satisfies
// the leaf-size constraint or improves purity.
func (t *Classifier) bestSplit(b *Binned, y []int, rows []int, pos int, r *rng.Source) (feat, bin int, ok bool) {
	n := len(rows)
	candidates := t.candidateFeatures(b.Width(), r)
	bestGini := math.Inf(1)
	var hist [MaxBins][2]int
	for _, j := range candidates {
		nb := b.BinCount(j)
		if nb < 2 {
			continue
		}
		for bi := 0; bi < nb; bi++ {
			hist[bi][0], hist[bi][1] = 0, 0
		}
		col := b.cols[j]
		for _, i := range rows {
			hist[col[i]][y[i]]++
		}
		// Prefix scan over bins: split "bin <= bi" for bi in [0, nb-2].
		leftN, leftPos := 0, 0
		for bi := 0; bi < nb-1; bi++ {
			leftN += hist[bi][0] + hist[bi][1]
			leftPos += hist[bi][1]
			rightN := n - leftN
			if leftN < t.params.MinSamplesLeaf || rightN < t.params.MinSamplesLeaf {
				continue
			}
			g := (float64(leftN)*giniOf(leftPos, leftN) +
				float64(rightN)*giniOf(pos-leftPos, rightN)) / float64(n)
			if g < bestGini-1e-12 {
				bestGini = g
				feat, bin = j, bi
				ok = true
			}
		}
	}
	// Like sklearn's CART, an impure node splits on the best candidate even
	// when the immediate Gini gain is zero (XOR-style structure needs one
	// uninformative split before the informative ones appear). Termination
	// is guaranteed because both children are strictly smaller.
	return feat, bin, ok
}

// candidateFeatures returns the feature indices considered at a node:
// all of them, or a random MaxFeatures-subset.
func (t *Classifier) candidateFeatures(width int, r *rng.Source) []int {
	k := t.params.MaxFeatures
	if k <= 0 || k >= width {
		all := make([]int, width)
		for i := range all {
			all[i] = i
		}
		return all
	}
	return r.Perm(width)[:k]
}

// giniOf returns the Gini impurity of a node with pos positives out of n.
func giniOf(pos, n int) float64 {
	if n == 0 {
		return 0
	}
	p := float64(pos) / float64(n)
	return 2 * p * (1 - p)
}

// Predict routes each row to its leaf and thresholds the leaf's positive
// fraction at 0.5 (ties to 1).
func (t *Classifier) Predict(X [][]float64) []int {
	scores := t.Scores(X)
	out := make([]int, len(scores))
	for i, s := range scores {
		if s >= 0.5 {
			out[i] = 1
		}
	}
	return out
}

// Scores returns the training positive fraction of each row's leaf.
func (t *Classifier) Scores(X [][]float64) []float64 {
	if len(t.nodes) == 0 {
		panic("tree: predict before fit")
	}
	ml.CheckPredict(X, t.width)
	out := make([]float64, len(X))
	for i, row := range X {
		out[i] = t.ScoreRow(row)
	}
	return out
}

// ScoreRow returns the leaf positive fraction for a single row.
func (t *Classifier) ScoreRow(row []float64) float64 {
	cur := 0
	for {
		nd := t.nodes[cur]
		if nd.feature == -1 {
			return nd.posFraction
		}
		if row[nd.feature] <= nd.threshold {
			cur = nd.left
		} else {
			cur = nd.right
		}
	}
}

// NumNodes returns the number of nodes in the fitted tree.
func (t *Classifier) NumNodes() int { return len(t.nodes) }

// Depth returns the depth of the fitted tree (0 for a single leaf).
func (t *Classifier) Depth() int {
	if len(t.nodes) == 0 {
		return 0
	}
	var walk func(i int) int
	walk = func(i int) int {
		nd := t.nodes[i]
		if nd.feature == -1 {
			return 0
		}
		l, r := walk(nd.left), walk(nd.right)
		if r > l {
			l = r
		}
		return l + 1
	}
	return walk(0)
}
