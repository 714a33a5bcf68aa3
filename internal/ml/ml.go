// Package ml defines the classifier abstraction shared by every model in
// the repository and the small numeric helpers they build on. The concrete
// models live in subpackages (knn, tree, forest, boost, linear, svm, nn,
// hamming), each implementing the paper's corresponding scikit-learn /
// XGBoost / CatBoost / LightGBM / Keras comparator from scratch.
package ml

import (
	"fmt"
	"math"
)

// Classifier is a binary classifier over dense float feature rows.
// Labels are 0 (negative) and 1 (positive).
type Classifier interface {
	// Fit trains the model on X (rows) and y (labels). Implementations
	// must copy or otherwise not retain caller-mutable state unless
	// documented. Fit returns an error for unusable input (no rows, a
	// single class where two are required, shape mismatches).
	Fit(X [][]float64, y []int) error
	// Predict returns one label per row of X. It panics if called before
	// a successful Fit.
	Predict(X [][]float64) []int
}

// Factory creates a fresh, untrained classifier. Evaluation harnesses call
// it once per fold/repetition, serially and in deterministic order, so
// factories may derive per-model seeds from internal counters.
type Factory func() Classifier

// ValidateFit checks the structural preconditions shared by every Fit
// implementation and returns a descriptive error: at least one row, equal
// row/label counts, rectangular X, binary labels, and no NaN/Inf cells.
func ValidateFit(X [][]float64, y []int) error {
	if len(X) == 0 {
		return fmt.Errorf("ml: fit with no rows")
	}
	if len(X) != len(y) {
		return fmt.Errorf("ml: %d rows but %d labels", len(X), len(y))
	}
	width := len(X[0])
	if width == 0 {
		return fmt.Errorf("ml: rows have no features")
	}
	for i, row := range X {
		if len(row) != width {
			return fmt.Errorf("ml: row %d has %d features, row 0 has %d", i, len(row), width)
		}
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("ml: row %d feature %d is %v", i, j, v)
			}
		}
	}
	for i, label := range y {
		if label != 0 && label != 1 {
			return fmt.Errorf("ml: label %d at row %d is not binary", label, i)
		}
	}
	return nil
}

// CheckPredict panics unless X is rectangular with the expected width;
// Predict implementations call it after their fitted-state check.
func CheckPredict(X [][]float64, width int) {
	for i, row := range X {
		if len(row) != width {
			panic(fmt.Sprintf("ml: predict row %d has %d features, model expects %d", i, len(row), width))
		}
	}
}

// MajorityLabel returns the most frequent label in y (ties to 1, matching
// the repository-wide tie convention). It panics on empty y.
func MajorityLabel(y []int) int {
	if len(y) == 0 {
		panic("ml: majority of no labels")
	}
	pos := 0
	for _, label := range y {
		pos += label
	}
	if 2*pos >= len(y) {
		return 1
	}
	return 0
}

// Mean returns the arithmetic mean of vs (0 for empty input).
func Mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var s float64
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

// Sigmoid returns 1/(1+e^-x), computed stably for large |x|.
func Sigmoid(x float64) float64 {
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}
