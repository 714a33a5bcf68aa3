package eval

import (
	"errors"
	"math"
	"testing"

	"hdfe/internal/dataset"
	"hdfe/internal/metrics"
	"hdfe/internal/ml"
	"hdfe/internal/rng"
)

// thresholdClassifier predicts 1 iff feature 0 exceeds the training mean —
// a deterministic stand-in model for harness tests.
type thresholdClassifier struct {
	cut    float64
	fitted bool
	failOn bool
}

func (t *thresholdClassifier) Fit(X [][]float64, y []int) error {
	if t.failOn {
		return errors.New("forced failure")
	}
	if err := ml.ValidateFit(X, y); err != nil {
		return err
	}
	var s float64
	for _, row := range X {
		s += row[0]
	}
	t.cut = s / float64(len(X))
	t.fitted = true
	return nil
}

func (t *thresholdClassifier) Predict(X [][]float64) []int {
	if !t.fitted {
		panic("predict before fit")
	}
	out := make([]int, len(X))
	for i, row := range X {
		if row[0] > t.cut {
			out[i] = 1
		}
	}
	return out
}

// leaveOneOutFolds returns n folds, fold i testing on row i and training
// on all others.
func leaveOneOutFolds(n int) []dataset.Fold {
	folds := make([]dataset.Fold, n)
	for i := range folds {
		for j := 0; j < n; j++ {
			if j != i {
				folds[i].Train = append(folds[i].Train, j)
			}
		}
		folds[i].Test = []int{i}
	}
	return folds
}

// separableData: feature 0 fully determines the class.
func separableData(n int) ([][]float64, []int) {
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		if i%2 == 0 {
			X[i] = []float64{float64(10 + i)}
			y[i] = 1
		} else {
			X[i] = []float64{float64(-10 - i)}
			y[i] = 0
		}
	}
	return X, y
}

func TestSelect(t *testing.T) {
	X := [][]float64{{1}, {2}, {3}}
	y := []int{0, 1, 0}
	sx, sy := Select(X, y, []int{2, 0})
	if sx[0][0] != 3 || sx[1][0] != 1 || sy[0] != 0 || sy[1] != 0 {
		t.Fatal("Select wrong")
	}
}

func TestTrainTestPerfectSeparation(t *testing.T) {
	X, y := separableData(40)
	f := func() ml.Classifier { return &thresholdClassifier{} }
	train := make([]int, 0)
	test := make([]int, 0)
	for i := range X {
		if i < 30 {
			train = append(train, i)
		} else {
			test = append(test, i)
		}
	}
	c, err := TrainTest(f, X, y, train, test)
	if err != nil {
		t.Fatal(err)
	}
	if c.Accuracy() != 1 {
		t.Fatalf("accuracy %v on separable data", c.Accuracy())
	}
}

func TestTrainTestPropagatesError(t *testing.T) {
	X, y := separableData(10)
	f := func() ml.Classifier { return &thresholdClassifier{failOn: true} }
	if _, err := TrainTest(f, X, y, []int{0, 1}, []int{2}); err == nil {
		t.Fatal("error not propagated")
	}
}

func TestCrossValidate(t *testing.T) {
	X, y := separableData(50)
	d := dataset.MustNew("cv", []dataset.Feature{{Name: "x"}}, X, y)
	folds := dataset.StratifiedKFold(d, 5, rng.New(1))
	f := func() ml.Classifier { return &thresholdClassifier{} }
	results, err := CrossValidate(f, X, y, folds)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 {
		t.Fatalf("%d results", len(results))
	}
	if score := CVScore(results); score != 1 {
		t.Fatalf("CVScore = %v on separable data", score)
	}
	for i, r := range results {
		if r.Train.Accuracy() != 1 {
			t.Fatalf("fold %d train accuracy %v", i, r.Train.Accuracy())
		}
	}
}

func TestCrossValidateErrorSurfaces(t *testing.T) {
	X, y := separableData(20)
	folds := leaveOneOutFolds(20)
	f := func() ml.Classifier { return &thresholdClassifier{failOn: true} }
	if _, err := CrossValidate(f, X, y, folds); err == nil {
		t.Fatal("fold error not surfaced")
	}
}

func TestFactoryCalledOncePerFold(t *testing.T) {
	X, y := separableData(30)
	d := dataset.MustNew("cv", []dataset.Feature{{Name: "x"}}, X, y)
	folds := dataset.StratifiedKFold(d, 3, rng.New(2))
	calls := 0
	f := func() ml.Classifier {
		calls++
		return &thresholdClassifier{}
	}
	if _, err := CrossValidate(f, X, y, folds); err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Fatalf("factory called %d times, want 3", calls)
	}
}

func TestLeaveOneOutViaCrossValidate(t *testing.T) {
	X, y := separableData(12)
	folds := leaveOneOutFolds(len(X))
	f := func() ml.Classifier { return &thresholdClassifier{} }
	results, err := CrossValidate(f, X, y, folds)
	if err != nil {
		t.Fatal(err)
	}
	var pooled metrics.Confusion
	for _, r := range results {
		pooled.TP += r.Test.TP
		pooled.TN += r.Test.TN
		pooled.FP += r.Test.FP
		pooled.FN += r.Test.FN
	}
	if pooled.Total() != 12 {
		t.Fatalf("pooled total %d", pooled.Total())
	}
	if pooled.Accuracy() != 1 {
		t.Fatalf("LOO accuracy %v", pooled.Accuracy())
	}
}

func TestCVScoreEmpty(t *testing.T) {
	if CVScore(nil) != 0 {
		t.Fatal("empty CVScore")
	}
}

func TestCVScoreAveragesNotPools(t *testing.T) {
	// Two folds with different sizes: averaging fold accuracies differs
	// from pooling; CVScore must average (like cross_val_score).
	rs := []FoldResult{
		{Test: metrics.Confusion{TP: 1}},        // accuracy 1 on 1 example
		{Test: metrics.Confusion{TP: 1, FN: 3}}, // accuracy 0.25 on 4
	}
	if got := CVScore(rs); math.Abs(got-0.625) > 1e-12 {
		t.Fatalf("CVScore = %v, want 0.625", got)
	}
}
