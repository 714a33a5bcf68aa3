package linear

import (
	"math"
	"runtime"
	"testing"

	"hdfe/internal/ml"
	"hdfe/internal/rng"
)

// serialFit is the single-goroutine gradient loop that Fit parallelises,
// kept verbatim as the reference Fit must match bit for bit.
func serialFit(X [][]float64, y []int, C float64, maxIter int, tol float64) ([]float64, float64) {
	n := len(X)
	d := len(X[0])

	scales := columnRMS(X)
	rescaled := heterogeneous(scales)
	if rescaled {
		scaled := make([][]float64, n)
		for i, row := range X {
			r := make([]float64, d)
			for j, v := range row {
				r[j] = v / scales[j]
			}
			scaled[i] = r
		}
		X = scaled
	}
	lambda := 0.0
	if C > 0 {
		lambda = 1 / (C * float64(n))
	}
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
	vW := make([]float64, d)
	var b, vB float64
	grad := make([]float64, d)
	mu := 0.9

	for iter := 0; iter < maxIter; iter++ {
		for j := range grad {
			grad[j] = lambda * (w[j] + mu*vW[j])
		}
		var gradB float64
		for i, row := range X {
			z := b + mu*vB
			for j, v := range row {
				z += (w[j] + mu*vW[j]) * v
			}
			err := ml.Sigmoid(z) - float64(y[i])
			for j, v := range row {
				grad[j] += err * v / float64(n)
			}
			gradB += err / float64(n)
		}
		var norm2 float64
		for _, g := range grad {
			norm2 += g * g
		}
		norm2 += gradB * gradB
		if math.Sqrt(norm2) < tol {
			break
		}
		for j := range w {
			vW[j] = mu*vW[j] - step*grad[j]
			w[j] += vW[j]
		}
		vB = mu*vB - step*gradB
		b += vB
	}
	if rescaled {
		for j := range w {
			w[j] /= scales[j]
		}
	}
	return w, b
}

// TestLogRegFitMatchesSerialBits fits 0/1 rows (hypervector inputs),
// clinical-scale rows (the rescaling branch) and three raw clinical
// columns (too few cells to fan out) on 1, 2 and 4 workers, and requires
// Float64bits-identical weights and intercept to serialFit.
func TestLogRegFitMatchesSerialBits(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	r := rng.New(21)
	const rows, cols = 120, 301 // 36,120 cells, above minFanOutCells
	var bitsX, wideX, rawX [][]float64
	var y []int
	for i := 0; i < rows; i++ {
		label := i % 3 % 2
		bits, wide := make([]float64, cols), make([]float64, cols)
		for j := range bits {
			if r.Bernoulli(0.4 + 0.2*float64(label)*float64(j%2)) {
				bits[j] = 1
			}
			// Insulin-, DPF- and age-like columns in turn.
			wide[j] = []float64{130 + float64(label)*80, 0.45, 28 + float64(label)*8}[j%3] * (1 + 0.3*r.NormFloat64())
		}
		bitsX, wideX = append(bitsX, bits), append(wideX, wide)
		rawX = append(rawX, wide[:3])
		y = append(y, label)
	}
	if rows*cols < minFanOutCells || 3*rows >= minFanOutCells {
		t.Fatal("inputs no longer straddle minFanOutCells")
	}
	for _, tc := range []struct {
		name   string
		X      [][]float64
		rescal bool
	}{{"0/1", bitsX, false}, {"clinical", wideX, true}, {"raw", rawX, true}} {
		if got := heterogeneous(columnRMS(tc.X)); got != tc.rescal {
			t.Fatalf("%s: heterogeneous = %v", tc.name, got)
		}
		wantW, wantB := serialFit(tc.X, y, 1, 150, 1e-12)
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			m := &LogisticRegression{C: 1, MaxIter: 150, Tol: 1e-12}
			if err := m.Fit(tc.X, y); err != nil {
				t.Fatal(err)
			}
			w, b := m.Coefficients()
			if math.Float64bits(b) != math.Float64bits(wantB) {
				t.Errorf("%s GOMAXPROCS=%d: intercept %v, serial %v", tc.name, procs, b, wantB)
			}
			for j := range w {
				if math.Float64bits(w[j]) != math.Float64bits(wantW[j]) {
					t.Errorf("%s GOMAXPROCS=%d: w[%d] = %v, serial %v", tc.name, procs, j, w[j], wantW[j])
					break
				}
			}
		}
	}
}
