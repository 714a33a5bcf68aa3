package synth

import (
	"math"
	"testing"

	"hdfe/internal/dataset"
)

// The generated Pima cohort must exhibit the documented correlation
// structure: pregnancies-age, BMI-skin-thickness and glucose-insulin are
// the strong pairs.
func TestPimaCorrelationStructure(t *testing.T) {
	d := dataset.DropMissing(Pima(PimaConfig{
		Seed: 1, CompleteNeg: 2000, CompletePos: 1000,
	}))
	c := correlation(d.X)
	// Column order: Preg, Glucose, BP, Skin, Insulin, BMI, DPF, Age.
	check := func(a, b int, want, tol float64, name string) {
		t.Helper()
		if math.Abs(c[a][b]-want) > tol {
			t.Errorf("%s correlation = %.3f, want ~%.2f", name, c[a][b], want)
		}
	}
	// Class mixing shifts correlations slightly above the within-class
	// targets; allow generous tolerance.
	check(0, 7, 0.54, 0.12, "pregnancies-age")
	check(3, 5, 0.66, 0.12, "skin-bmi")
	check(1, 4, 0.58, 0.12, "glucose-insulin")
	// A weak pair must stay weak.
	check(0, 6, -0.03, 0.15, "pregnancies-dpf")
}

// correlation returns the Pearson correlation matrix of the columns of
// complete rows X.
func correlation(X [][]float64) [][]float64 {
	k := len(X[0])
	n := float64(len(X))
	mean := make([]float64, k)
	for _, row := range X {
		for j, v := range row {
			mean[j] += v / n
		}
	}
	cov := make([][]float64, k)
	for a := range cov {
		cov[a] = make([]float64, k)
		for b := range cov[a] {
			for _, row := range X {
				cov[a][b] += (row[a] - mean[a]) * (row[b] - mean[b])
			}
		}
	}
	c := make([][]float64, k)
	for a := range c {
		c[a] = make([]float64, k)
		for b := range c[a] {
			c[a][b] = cov[a][b] / math.Sqrt(cov[a][a]*cov[b][b])
		}
	}
	return c
}
