// Package metrics computes binary-classification performance metrics in the
// exact form the paper reports (Tables IV and V): precision, recall,
// specificity, F1 score and accuracy, all derived from a confusion matrix
// with class 1 as the positive class.
package metrics

import (
	"fmt"
	"math"
)

// Confusion is a binary confusion matrix. The positive class is 1.
type Confusion struct {
	TP, TN, FP, FN int
}

// NewConfusion tallies predictions against true labels. It panics if the
// slices differ in length or contain non-binary labels.
func NewConfusion(yTrue, yPred []int) Confusion {
	if len(yTrue) != len(yPred) {
		panic(fmt.Sprintf("metrics: %d labels but %d predictions", len(yTrue), len(yPred)))
	}
	var c Confusion
	for i, truth := range yTrue {
		pred := yPred[i]
		if truth != 0 && truth != 1 || pred != 0 && pred != 1 {
			panic(fmt.Sprintf("metrics: non-binary label pair (%d,%d) at %d", truth, pred, i))
		}
		switch {
		case truth == 1 && pred == 1:
			c.TP++
		case truth == 0 && pred == 0:
			c.TN++
		case truth == 0 && pred == 1:
			c.FP++
		default:
			c.FN++
		}
	}
	return c
}

// Total returns the number of counted examples.
func (c Confusion) Total() int { return c.TP + c.TN + c.FP + c.FN }

// Accuracy returns (TP+TN)/total, or NaN for an empty matrix.
func (c Confusion) Accuracy() float64 {
	if c.Total() == 0 {
		return math.NaN()
	}
	return float64(c.TP+c.TN) / float64(c.Total())
}

// Precision returns TP/(TP+FP), or NaN if nothing was predicted positive.
func (c Confusion) Precision() float64 {
	if c.TP+c.FP == 0 {
		return math.NaN()
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall (sensitivity) returns TP/(TP+FN), or NaN with no positives.
func (c Confusion) Recall() float64 {
	if c.TP+c.FN == 0 {
		return math.NaN()
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// Specificity returns TN/(TN+FP), or NaN with no negatives.
func (c Confusion) Specificity() float64 {
	if c.TN+c.FP == 0 {
		return math.NaN()
	}
	return float64(c.TN) / float64(c.TN+c.FP)
}

// F1 returns the harmonic mean of precision and recall, or NaN if either
// is undefined or both are zero.
func (c Confusion) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if math.IsNaN(p) || math.IsNaN(r) || p+r == 0 {
		return math.NaN()
	}
	return 2 * p * r / (p + r)
}

// Report bundles the five metrics the paper tabulates.
type Report struct {
	Precision   float64
	Recall      float64
	Specificity float64
	F1          float64
	Accuracy    float64
}

// Summarize extracts a Report from the confusion matrix.
func (c Confusion) Summarize() Report {
	return Report{
		Precision:   c.Precision(),
		Recall:      c.Recall(),
		Specificity: c.Specificity(),
		F1:          c.F1(),
		Accuracy:    c.Accuracy(),
	}
}

// String renders the matrix compactly for logs and test failures.
func (c Confusion) String() string {
	return fmt.Sprintf("Confusion{TP:%d TN:%d FP:%d FN:%d}", c.TP, c.TN, c.FP, c.FN)
}

// Accuracy is a convenience wrapper: fraction of matching labels.
func Accuracy(yTrue, yPred []int) float64 { return NewConfusion(yTrue, yPred).Accuracy() }
