// Package linear implements the paper's two linear comparison models:
// L2-regularized logistic regression (sklearn LogisticRegression) trained
// by full-batch gradient descent with Nesterov momentum, and a stochastic
// gradient descent classifier with hinge loss (sklearn SGDClassifier with
// its defaults and "optimal" learning-rate schedule).
//
// Neither model scales its inputs: the paper runs all comparators on raw
// feature values ("we used the same hyper-tuning variables used in the
// mentioned references", sklearn defaults, no preprocessing). That choice
// is what makes SGD weak on raw clinical features and markedly better on
// 0/1 hypervector inputs — one of the paper's headline observations.
package linear

import (
	"fmt"
	"math"

	"hdfe/internal/ml"
	"hdfe/internal/parallel"
)

// LogisticRegression is an L2-regularized logistic regression classifier.
type LogisticRegression struct {
	// C is the inverse regularization strength (sklearn semantics);
	// the effective L2 penalty on the mean log-loss is 1/(C·n).
	C float64
	// MaxIter bounds the gradient descent iterations.
	MaxIter int
	// Tol stops descent when the gradient norm falls below it.
	Tol float64

	w     []float64
	b     float64
	width int
}

var _ ml.Classifier = (*LogisticRegression)(nil)

// NewLogisticRegression returns a model with sklearn-like defaults
// (C = 1.0, 1000 iterations, tol 1e-4).
func NewLogisticRegression() *LogisticRegression {
	return &LogisticRegression{C: 1.0, MaxIter: 1000, Tol: 1e-4}
}

// minFanOutCells is the smallest training matrix, in cells, whose
// gradient steps Fit spreads across workers.
const minFanOutCells = 1 << 15

// Fit minimizes the regularized mean log-loss with Nesterov-accelerated
// gradient descent. The step size is set from a Lipschitz bound of the
// loss gradient, so no learning-rate tuning is needed and training is
// deterministic.
//
// When feature columns have strongly heterogeneous scales (raw clinical
// values: insulin in the hundreds next to DPF below one), first-order
// descent is hopelessly ill-conditioned, so Fit preconditions by column
// RMS — optimizing in a rescaled coordinate system and mapping the weights
// back. This is a solver detail (sklearn's LBFGS achieves the same effect
// through curvature estimates), not data preprocessing: the fitted model
// is still logistic regression on the raw inputs.
func (m *LogisticRegression) Fit(X [][]float64, y []int) error {
	if err := ml.ValidateFit(X, y); err != nil {
		return err
	}
	n := len(X)
	d := len(X[0])

	scales := columnRMS(X)
	if heterogeneous(scales) {
		scaled := make([][]float64, n)
		for i, row := range X {
			r := make([]float64, d)
			for j, v := range row {
				r[j] = v / scales[j]
			}
			scaled[i] = r
		}
		X = scaled
		defer func() {
			if m.w != nil {
				for j := range m.w {
					m.w[j] /= scales[j]
				}
			}
		}()
	}
	lambda := 0.0
	if m.C > 0 {
		lambda = 1 / (m.C * float64(n))
	}
	// Lipschitz constant of mean logistic loss gradient: max row norm^2/4
	// (plus the bias column's contribution of 1/4) + lambda.
	var maxNorm2 float64
	for _, row := range X {
		var s float64
		for _, v := range row {
			s += v * v
		}
		if s > maxNorm2 {
			maxNorm2 = s
		}
	}
	step := 1 / ((maxNorm2+1)/4 + lambda)

	w := make([]float64, d)
	vW := make([]float64, d)   // momentum carrier
	look := make([]float64, d) // Nesterov look-ahead point w + mu·vW
	var b, vB float64
	grad := make([]float64, d)
	errs := make([]float64, n) // per-row residual sigmoid(z) − y
	mu := 0.9
	// A step fans out only when it has the cells to pay for two rounds
	// of goroutines: Pima's 392 × 10,000 hypervector bits do, its
	// 392 × 8 raw features do not.
	fan := parallel.ForChunked
	if n*d < minFanOutCells {
		fan = func(n int, body func(lo, hi int)) { body(0, n) }
	}

	for iter := 0; iter < m.MaxIter; iter++ {
		// Evaluate the gradient at the look-ahead point. The margins fan
		// out by row and the gradient by column; each dot product runs
		// in column order and each column sum in row order, so the fit
		// is bit-identical on any number of workers.
		for j := range look {
			look[j] = w[j] + mu*vW[j]
		}
		lookB := b + mu*vB
		fan(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				z := lookB
				for j, v := range X[i] {
					z += look[j] * v
				}
				errs[i] = ml.Sigmoid(z) - float64(y[i])
			}
		})
		fan(d, func(lo, hi int) {
			g := grad[lo:hi]
			for j := range g {
				g[j] = lambda * look[lo+j]
			}
			for i, row := range X {
				for j, v := range row[lo:hi] {
					g[j] += errs[i] * v / float64(n)
				}
			}
		})
		var gradB float64
		for _, err := range errs {
			gradB += err / float64(n)
		}
		var norm2 float64
		for _, g := range grad {
			norm2 += g * g
		}
		norm2 += gradB * gradB
		if math.Sqrt(norm2) < m.Tol {
			break
		}
		for j := range w {
			vW[j] = mu*vW[j] - step*grad[j]
			w[j] += vW[j]
		}
		vB = mu*vB - step*gradB
		b += vB
	}
	m.w, m.b, m.width = w, b, d
	return nil
}

// Predict thresholds the positive-class probability at 0.5.
func (m *LogisticRegression) Predict(X [][]float64) []int {
	scores := m.Scores(X)
	out := make([]int, len(scores))
	for i, s := range scores {
		if s >= 0.5 {
			out[i] = 1
		}
	}
	return out
}

// Scores returns P(y=1|x) per row.
func (m *LogisticRegression) Scores(X [][]float64) []float64 {
	if m.w == nil {
		panic("linear: predict before fit")
	}
	ml.CheckPredict(X, m.width)
	out := make([]float64, len(X))
	for i, row := range X {
		z := m.b
		for j, v := range row {
			z += m.w[j] * v
		}
		out[i] = ml.Sigmoid(z)
	}
	return out
}

// columnRMS returns sqrt(mean(x^2)) per column (1 for all-zero columns).
func columnRMS(X [][]float64) []float64 {
	d := len(X[0])
	s := make([]float64, d)
	for _, row := range X {
		for j, v := range row {
			s[j] += v * v
		}
	}
	for j := range s {
		s[j] = math.Sqrt(s[j] / float64(len(X)))
		if s[j] == 0 {
			s[j] = 1
		}
	}
	return s
}

// heterogeneous reports whether column scales span more than an order of
// magnitude, the regime where preconditioning matters.
func heterogeneous(scales []float64) bool {
	lo, hi := math.Inf(1), 0.0
	for _, s := range scales {
		if s < lo {
			lo = s
		}
		if s > hi {
			hi = s
		}
	}
	return hi > 10*lo
}

// Coefficients returns a copy of the fitted weights and the intercept.
func (m *LogisticRegression) Coefficients() (w []float64, b float64) {
	if m.w == nil {
		panic("linear: coefficients before fit")
	}
	return append([]float64(nil), m.w...), m.b
}

// String identifies the model in experiment tables.
func (m *LogisticRegression) String() string {
	return fmt.Sprintf("LogisticRegression(C=%g)", m.C)
}
