package boost

import (
	"math"
	"testing"

	"hdfe/internal/metrics"
	"hdfe/internal/rng"
)

func blobs(seed uint64, n int, gap float64) ([][]float64, []int) {
	r := rng.New(seed)
	var X [][]float64
	var y []int
	for i := 0; i < n; i++ {
		label := i % 2
		s := float64(label) * gap
		X = append(X, []float64{s + r.NormFloat64(), s + r.NormFloat64(), r.NormFloat64()})
		y = append(y, label)
	}
	return X, y
}

// xorData returns XOR-labelled cells with unequal cell sizes. Exactly
// balanced XOR has zero gradient sums everywhere, so no greedy booster
// (including the real XGBoost) can split it; slight imbalance — the
// realistic case — restores nonzero first-split gains.
func xorData() ([][]float64, []int) {
	var X [][]float64
	var y []int
	cells := []struct {
		a, b  float64
		label int
		count int
	}{
		{0, 0, 0, 30}, {0, 1, 1, 25}, {1, 0, 1, 25}, {1, 1, 0, 20},
	}
	for _, c := range cells {
		for i := 0; i < c.count; i++ {
			X = append(X, []float64{c.a, c.b})
			y = append(y, c.label)
		}
	}
	return X, y
}

// xgb, lgbm and catboost build the three styles with the settings
// tables.Zoo uses for the paper's comparison.
func xgb(seed uint64) *Classifier {
	return New(Params{
		Style: LevelWise, Rounds: 100, LearningRate: 0.3, MaxDepth: 6,
		Lambda: 1, MinChildWeight: 1, Subsample: 1, Seed: seed,
	})
}

func lgbm(seed uint64) *Classifier {
	return New(Params{
		Style: LeafWise, Rounds: 100, LearningRate: 0.1, MaxLeaves: 31,
		Lambda: 1, MinChildWeight: 1e-3, Subsample: 1, Seed: seed,
	})
}

func catboost(seed uint64) *Classifier {
	return New(Params{
		Style: Oblivious, Rounds: 200, LearningRate: 0.1, MaxDepth: 6,
		Lambda: 3, MinChildWeight: 1, Subsample: 1, Seed: seed,
	})
}

func constructors() map[string]func(uint64) *Classifier {
	return map[string]func(uint64) *Classifier{
		"xgb":      xgb,
		"lgbm":     lgbm,
		"catboost": catboost,
	}
}

func TestAllStylesSeparateBlobs(t *testing.T) {
	X, y := blobs(1, 300, 3)
	for name, mk := range constructors() {
		c := mk(1)
		if err := c.Fit(X, y); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if acc := metrics.Accuracy(y, c.Predict(X)); acc < 0.95 {
			t.Errorf("%s train accuracy %v", name, acc)
		}
	}
}

func TestAllStylesLearnXOR(t *testing.T) {
	X, y := xorData()
	for name, mk := range constructors() {
		c := mk(2)
		if err := c.Fit(X, y); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if acc := metrics.Accuracy(y, c.Predict(X)); acc != 1 {
			t.Errorf("%s XOR accuracy %v", name, acc)
		}
	}
}

func TestScoresAreProbabilities(t *testing.T) {
	X, y := blobs(3, 200, 3)
	c := xgb(3)
	if err := c.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	for _, s := range c.Scores(X) {
		if s < 0 || s > 1 || math.IsNaN(s) {
			t.Fatalf("score %v out of [0,1]", s)
		}
	}
}

func TestBaseScoreIsPrior(t *testing.T) {
	// On pure-noise features the model should predict close to the class
	// prior.
	r := rng.New(4)
	var X [][]float64
	var y []int
	for i := 0; i < 300; i++ {
		X = append(X, []float64{r.NormFloat64()})
		label := 0
		if i%4 == 0 { // 25% positive
			label = 1
		}
		y = append(y, label)
	}
	c := New(Params{Style: LevelWise, Rounds: 5, LearningRate: 0.1, MaxDepth: 2,
		Lambda: 1, MinChildWeight: 1, Subsample: 1})
	if err := c.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	mean := 0.0
	for _, s := range c.Scores(X) {
		mean += s
	}
	mean /= float64(len(X))
	if math.Abs(mean-0.25) > 0.1 {
		t.Fatalf("mean predicted probability %v, want ~0.25", mean)
	}
}

func TestMoreRoundsFitTighter(t *testing.T) {
	X, y := blobs(5, 200, 1.0) // heavily overlapping
	few := New(Params{Style: LevelWise, Rounds: 2, LearningRate: 0.3, MaxDepth: 3,
		Lambda: 1, MinChildWeight: 1, Subsample: 1})
	many := New(Params{Style: LevelWise, Rounds: 150, LearningRate: 0.3, MaxDepth: 3,
		Lambda: 1, MinChildWeight: 1, Subsample: 1})
	if err := few.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if err := many.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	accFew := metrics.Accuracy(y, few.Predict(X))
	accMany := metrics.Accuracy(y, many.Predict(X))
	if accMany < accFew {
		t.Fatalf("150 rounds (%v) fit worse than 2 rounds (%v)", accMany, accFew)
	}
}

func TestLeafWiseRespectsMaxLeaves(t *testing.T) {
	X, y := blobs(6, 400, 0.5)
	c := New(Params{Style: LeafWise, Rounds: 1, LearningRate: 0.1, MaxLeaves: 4,
		Lambda: 1, MinChildWeight: 1e-3, Subsample: 1})
	if err := c.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	// A tree with L leaves has 2L-1 nodes.
	if n := len(c.trees[0].nodes); n > 2*4-1 {
		t.Fatalf("leaf-wise tree has %d nodes, max leaves 4 allows 7", n)
	}
}

func TestObliviousTreeIsSymmetric(t *testing.T) {
	X, y := blobs(7, 300, 2)
	c := New(Params{Style: Oblivious, Rounds: 1, LearningRate: 0.1, MaxDepth: 3,
		Lambda: 1, MinChildWeight: 1, Subsample: 1})
	if err := c.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	tr := c.trees[0]
	// Every internal node at the same depth must share (feature,
	// threshold).
	type key struct {
		f int
		t float64
	}
	byDepth := map[int]map[key]bool{}
	var walk func(idx, depth int)
	walk = func(idx, depth int) {
		nd := tr.nodes[idx]
		if nd.feature == -1 {
			return
		}
		if byDepth[depth] == nil {
			byDepth[depth] = map[key]bool{}
		}
		byDepth[depth][key{nd.feature, nd.threshold}] = true
		walk(nd.left, depth+1)
		walk(nd.right, depth+1)
	}
	walk(0, 0)
	for depth, keys := range byDepth {
		if len(keys) != 1 {
			t.Fatalf("depth %d has %d distinct splits, oblivious trees need 1", depth, len(keys))
		}
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	X, y := blobs(8, 150, 2)
	for name, mk := range constructors() {
		a, b := mk(42), mk(42)
		if err := a.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		if err := b.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		sa, sb := a.Scores(X), b.Scores(X)
		for i := range sa {
			if sa[i] != sb[i] {
				t.Fatalf("%s: same-seed models disagree", name)
			}
		}
	}
}

func TestSubsampling(t *testing.T) {
	X, y := blobs(9, 200, 3)
	c := New(Params{Style: LevelWise, Rounds: 30, LearningRate: 0.3, MaxDepth: 3,
		Lambda: 1, MinChildWeight: 1, Subsample: 0.5, Seed: 1})
	if err := c.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if acc := metrics.Accuracy(y, c.Predict(X)); acc < 0.9 {
		t.Fatalf("subsampled accuracy %v", acc)
	}
}

func TestSingleClassTrainingSet(t *testing.T) {
	X := [][]float64{{1}, {2}, {3}}
	y := []int{1, 1, 1}
	c := xgb(1)
	if err := c.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	for _, p := range c.Predict(X) {
		if p != 1 {
			t.Fatal("single-class model must predict that class")
		}
	}
}

func TestPredictBeforeFitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	xgb(1).Predict([][]float64{{1}})
}

func TestNumTreesAndString(t *testing.T) {
	X, y := blobs(10, 60, 3)
	c := New(Params{Style: LeafWise, Rounds: 7, LearningRate: 0.1, MaxLeaves: 4,
		Lambda: 1, MinChildWeight: 1e-3, Subsample: 1})
	if err := c.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if c.NumTrees() != 7 {
		t.Fatalf("NumTrees = %d", c.NumTrees())
	}
	if c.String() == "" || LevelWise.String() == "" || Style(99).String() == "" {
		t.Fatal("String empty")
	}
}
