// Package svm implements a C-support-vector classifier (Cortes & Vapnik
// 1995) trained by sequential minimal optimization with LIBSVM's
// first-order working-set selection. Defaults mirror sklearn's SVC:
// RBF kernel, C = 1, gamma = "scale" (1 / (width · Var(X))).
//
// Binary 0/1 inputs — hypervectors — are detected at Fit time and dot
// products run on packed uint64 words with popcount, which makes the Gram
// computation on 10,000-bit inputs ~64x cheaper than the float path.
package svm

import (
	"fmt"
	"math"
	"math/bits"

	"hdfe/internal/ml"
	"hdfe/internal/parallel"
)

// KernelKind selects the kernel function.
type KernelKind int

const (
	// RBF is exp(-gamma * ||x-z||^2), sklearn's default.
	RBF KernelKind = iota
	// Linear is the plain dot product.
	Linear
)

// Params configures the SVC.
type Params struct {
	// Kernel selects RBF (default) or Linear.
	Kernel KernelKind
	// C is the soft-margin penalty (sklearn default 1).
	C float64
	// Gamma is the RBF width; 0 means sklearn's "scale": 1/(width·Var(X)).
	Gamma float64
	// Tol is the KKT violation tolerance for convergence (default 1e-3).
	Tol float64
	// MaxIter bounds SMO iterations; 0 means 10000·n pair updates.
	MaxIter int
}

// Classifier is a fitted SVC.
type Classifier struct {
	params Params

	width   int
	gamma   float64
	alphaY  []float64   // alpha_i * y_i for support vectors
	support [][]float64 // support vector rows (float form)
	packed  [][]uint64  // packed form when input is binary
	norms   []float64   // squared norms of support vectors
	b       float64
	binary  bool
}

var _ ml.Classifier = (*Classifier)(nil)

// New returns an untrained SVC with sklearn-like defaults filled in.
func New(p Params) *Classifier {
	if p.C <= 0 {
		p.C = 1
	}
	if p.Tol <= 0 {
		p.Tol = 1e-3
	}
	return &Classifier{params: p}
}

// isBinaryMatrix reports whether every cell of X is 0 or 1.
func isBinaryMatrix(X [][]float64) bool {
	for _, row := range X {
		for _, v := range row {
			if v != 0 && v != 1 {
				return false
			}
		}
	}
	return true
}

func packBits(row []float64) []uint64 {
	w := make([]uint64, (len(row)+63)/64)
	for j, v := range row {
		if v != 0 {
			w[j/64] |= 1 << (uint(j) % 64)
		}
	}
	return w
}

func dotPacked(a, b []uint64) float64 {
	s := 0
	for i, w := range a {
		s += bits.OnesCount64(w & b[i])
	}
	return float64(s)
}

func dotFloat(a, b []float64) float64 {
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Fit solves the SVC dual with SMO.
func (c *Classifier) Fit(X [][]float64, y []int) error {
	if err := ml.ValidateFit(X, y); err != nil {
		return err
	}
	n := len(X)
	c.width = len(X[0])
	c.binary = isBinaryMatrix(X)

	// gamma = "scale": 1 / (width * Var(flattened X)).
	c.gamma = c.params.Gamma
	if c.params.Kernel == RBF && c.gamma <= 0 {
		var sum, sumSq float64
		cells := float64(n * c.width)
		for _, row := range X {
			for _, v := range row {
				sum += v
				sumSq += v * v
			}
		}
		mean := sum / cells
		variance := sumSq/cells - mean*mean
		if variance <= 0 {
			variance = 1
		}
		c.gamma = 1 / (float64(c.width) * variance)
	}

	// Precompute the Gram matrix (rows in parallel).
	var packed [][]uint64
	if c.binary {
		packed = make([][]uint64, n)
		for i, row := range X {
			packed[i] = packBits(row)
		}
	}
	norms := make([]float64, n)
	for i, row := range X {
		if c.binary {
			norms[i] = dotPacked(packed[i], packed[i])
		} else {
			norms[i] = dotFloat(row, row)
		}
	}
	K := make([][]float64, n)
	parallel.For(n, func(i int) {
		K[i] = make([]float64, n)
		for j := 0; j <= i; j++ {
			var dot float64
			if c.binary {
				dot = dotPacked(packed[i], packed[j])
			} else {
				dot = dotFloat(X[i], X[j])
			}
			var k float64
			switch c.params.Kernel {
			case Linear:
				k = dot
			default: // RBF
				d2 := norms[i] + norms[j] - 2*dot
				if d2 < 0 {
					d2 = 0
				}
				k = math.Exp(-c.gamma * d2)
			}
			K[i][j] = k
		}
	})
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			K[i][j] = K[j][i]
		}
	}

	// SMO over the dual: minimize 1/2 a'Qa - e'a, 0 <= a <= C, y'a = 0,
	// where Q_ij = y_i y_j K_ij. grad_i = (Qa)_i - 1.
	ys := make([]float64, n)
	for i, label := range y {
		ys[i] = 2*float64(label) - 1
	}
	alpha := make([]float64, n)
	grad := make([]float64, n)
	for i := range grad {
		grad[i] = -1
	}
	maxIter := c.params.MaxIter
	if maxIter <= 0 {
		maxIter = 10000 * n
		if maxIter < 100000 {
			maxIter = 100000
		}
	}
	C := c.params.C
	for iter := 0; iter < maxIter; iter++ {
		// First-order working-set selection (LIBSVM WSS1).
		i, j := -1, -1
		gmax, gmin := math.Inf(-1), math.Inf(1)
		for t := 0; t < n; t++ {
			if (ys[t] > 0 && alpha[t] < C) || (ys[t] < 0 && alpha[t] > 0) {
				if v := -ys[t] * grad[t]; v > gmax {
					gmax, i = v, t
				}
			}
			if (ys[t] > 0 && alpha[t] > 0) || (ys[t] < 0 && alpha[t] < C) {
				if v := -ys[t] * grad[t]; v < gmin {
					gmin, j = v, t
				}
			}
		}
		if i == -1 || j == -1 || gmax-gmin < c.params.Tol {
			break
		}
		// Analytic two-variable update.
		quad := K[i][i] + K[j][j] - 2*K[i][j]
		if quad <= 1e-12 {
			quad = 1e-12
		}
		delta := (gmax - gmin) / quad
		// Translate to alpha step respecting box constraints: work in the
		// (alpha_i, alpha_j) plane along the equality constraint.
		oldAi, oldAj := alpha[i], alpha[j]
		ai := oldAi + ys[i]*delta
		aj := oldAj - ys[j]*delta
		// Clip ai to [0, C], propagate to aj through the constraint.
		if ai > C {
			ai = C
		}
		if ai < 0 {
			ai = 0
		}
		aj = oldAj - ys[j]*ys[i]*(ai-oldAi)
		if aj > C {
			aj = C
		}
		if aj < 0 {
			aj = 0
		}
		ai = oldAi - ys[i]*ys[j]*(aj-oldAj)
		dAi, dAj := ai-oldAi, aj-oldAj
		if math.Abs(dAi) < 1e-14 && math.Abs(dAj) < 1e-14 {
			break
		}
		alpha[i], alpha[j] = ai, aj
		for t := 0; t < n; t++ {
			grad[t] += ys[t] * (K[i][t]*ys[i]*dAi + K[j][t]*ys[j]*dAj)
		}
	}

	// Bias from free support vectors (average of y_i - f_free(x_i)),
	// falling back to the KKT midpoint when none are free.
	var bSum float64
	nFree := 0
	for t := 0; t < n; t++ {
		if alpha[t] > 1e-9 && alpha[t] < C-1e-9 {
			bSum += -ys[t] * grad[t]
			nFree++
		}
	}
	if nFree > 0 {
		c.b = bSum / float64(nFree)
	} else {
		// Midpoint of the violation interval.
		ub, lb := math.Inf(1), math.Inf(-1)
		for t := 0; t < n; t++ {
			v := -ys[t] * grad[t]
			if (ys[t] > 0 && alpha[t] < C) || (ys[t] < 0 && alpha[t] > 0) {
				if v > lb {
					lb = v
				}
			}
			if (ys[t] > 0 && alpha[t] > 0) || (ys[t] < 0 && alpha[t] < C) {
				if v < ub {
					ub = v
				}
			}
		}
		c.b = (ub + lb) / 2
	}

	// Retain only support vectors.
	c.alphaY = c.alphaY[:0]
	c.support = c.support[:0]
	c.packed = c.packed[:0]
	c.norms = c.norms[:0]
	for t := 0; t < n; t++ {
		if alpha[t] > 1e-9 {
			c.alphaY = append(c.alphaY, alpha[t]*ys[t])
			row := append([]float64(nil), X[t]...)
			c.support = append(c.support, row)
			if c.binary {
				c.packed = append(c.packed, packed[t])
			}
			c.norms = append(c.norms, norms[t])
		}
	}
	if len(c.support) == 0 {
		// Degenerate (e.g. single-class) problem: fall back to a constant
		// decision at the majority class via the bias.
		if ml.MajorityLabel(y) == 1 {
			c.b = 1
		} else {
			c.b = -1
		}
	}
	return nil
}

// Predict thresholds the decision function at zero.
func (c *Classifier) Predict(X [][]float64) []int {
	scores := c.Scores(X)
	out := make([]int, len(scores))
	for i, s := range scores {
		if s >= 0 {
			out[i] = 1
		}
	}
	return out
}

// Scores returns the signed decision function per row.
func (c *Classifier) Scores(X [][]float64) []float64 {
	if c.alphaY == nil && c.b == 0 {
		panic("svm: predict before fit")
	}
	ml.CheckPredict(X, c.width)
	out := make([]float64, len(X))
	parallel.For(len(X), func(i int) {
		out[i] = c.decision(X[i])
	})
	return out
}

func (c *Classifier) decision(row []float64) float64 {
	f := c.b
	useBinary := c.binary && isBinaryRow(row)
	var packedRow []uint64
	var norm float64
	if useBinary {
		packedRow = packBits(row)
		norm = dotPacked(packedRow, packedRow)
	} else {
		norm = dotFloat(row, row)
	}
	for s := range c.support {
		var dot float64
		if useBinary {
			dot = dotPacked(packedRow, c.packed[s])
		} else {
			dot = dotFloat(row, c.support[s])
		}
		var k float64
		switch c.params.Kernel {
		case Linear:
			k = dot
		default:
			d2 := norm + c.norms[s] - 2*dot
			if d2 < 0 {
				d2 = 0
			}
			k = math.Exp(-c.gamma * d2)
		}
		f += c.alphaY[s] * k
	}
	return f
}

func isBinaryRow(row []float64) bool {
	for _, v := range row {
		if v != 0 && v != 1 {
			return false
		}
	}
	return true
}

// NumSupport returns the number of support vectors retained by Fit.
func (c *Classifier) NumSupport() int { return len(c.support) }

// Gamma returns the effective RBF gamma resolved at Fit time.
func (c *Classifier) Gamma() float64 { return c.gamma }

// String identifies the model in experiment tables.
func (c *Classifier) String() string {
	k := "rbf"
	if c.params.Kernel == Linear {
		k = "linear"
	}
	return fmt.Sprintf("SVC(kernel=%s,C=%g)", k, c.params.C)
}
