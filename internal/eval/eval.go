// Package eval runs the paper's validation protocols over any ml.Classifier:
// stratified k-fold cross-validation (Table III) and holdout testing with
// full metric reports (Tables IV and V). Folds are trained and evaluated in
// parallel.
package eval

import (
	"fmt"

	"hdfe/internal/dataset"
	"hdfe/internal/metrics"
	"hdfe/internal/ml"
	"hdfe/internal/parallel"
)

// Select gathers the given rows of X and y into dense slices.
func Select(X [][]float64, y []int, idx []int) ([][]float64, []int) {
	return SelectInto(X, y, idx, nil, nil)
}

// SelectInto is Select writing into caller-recycled slices (grown if
// nil/short). Leave-one-out over n records runs n folds whose train sets
// are each n-1 rows; recycling one pair of buffers per worker turns that
// from O(n²) slice-header churn into O(workers·n).
func SelectInto(X [][]float64, y []int, idx []int, dstX [][]float64, dstY []int) ([][]float64, []int) {
	if cap(dstX) < len(idx) {
		dstX = make([][]float64, len(idx))
	}
	if cap(dstY) < len(idx) {
		dstY = make([]int, len(idx))
	}
	dstX, dstY = dstX[:len(idx)], dstY[:len(idx)]
	for i, r := range idx {
		dstX[i] = X[r]
		dstY[i] = y[r]
	}
	return dstX, dstY
}

// TrainTest fits a fresh classifier on the train rows and returns its
// confusion matrix on the test rows.
func TrainTest(f ml.Factory, X [][]float64, y []int, train, test []int) (metrics.Confusion, error) {
	clf := f()
	trX, trY := Select(X, y, train)
	teX, teY := Select(X, y, test)
	if err := clf.Fit(trX, trY); err != nil {
		return metrics.Confusion{}, fmt.Errorf("eval: fit failed: %w", err)
	}
	return metrics.NewConfusion(teY, clf.Predict(teX)), nil
}

// FoldResult is the outcome of one cross-validation fold.
type FoldResult struct {
	// Test is the confusion matrix on the held-out fold.
	Test metrics.Confusion
	// Train is the confusion matrix re-substituted on the training rows.
	Train metrics.Confusion
}

// CrossValidate runs the given folds, each with a freshly created
// classifier, in parallel. Factories are invoked serially in fold order
// before any training starts, so factory-internal seeding stays
// deterministic. The returned slice is indexed by fold.
func CrossValidate(f ml.Factory, X [][]float64, y []int, folds []dataset.Fold) ([]FoldResult, error) {
	clfs := make([]ml.Classifier, len(folds))
	for i := range folds {
		clfs[i] = f()
	}
	results := make([]FoldResult, len(folds))
	errs := make([]error, len(folds))
	// Folds run chunked with one set of selection buffers per worker,
	// recycled fold to fold. This is safe because each fold's classifier
	// is fitted, evaluated and abandoned strictly within its iteration:
	// nothing reads a classifier (which may retain its training slice)
	// after the worker has moved on and overwritten the buffers.
	parallel.ForChunked(len(folds), func(lo, hi int) {
		var trX, teX [][]float64
		var trY, teY []int
		for i := lo; i < hi; i++ {
			fold := folds[i]
			trX, trY = SelectInto(X, y, fold.Train, trX, trY)
			teX, teY = SelectInto(X, y, fold.Test, teX, teY)
			if err := clfs[i].Fit(trX, trY); err != nil {
				errs[i] = fmt.Errorf("eval: fold %d fit: %w", i, err)
				continue
			}
			results[i] = FoldResult{
				Test:  metrics.NewConfusion(teY, clfs[i].Predict(teX)),
				Train: metrics.NewConfusion(trY, clfs[i].Predict(trX)),
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// CVScore reports the mean held-out accuracy across folds — the quantity
// sklearn's cross_val_score computes and the paper's Table III tabulates as
// "training accuracy" (accuracy measured during the training phase of the
// study, before the final holdout test).
func CVScore(results []FoldResult) float64 {
	if len(results) == 0 {
		return 0
	}
	var s float64
	for _, r := range results {
		s += r.Test.Accuracy()
	}
	return s / float64(len(results))
}
