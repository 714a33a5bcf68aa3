package ml

import (
	"math"
	"testing"
)

func TestValidateFit(t *testing.T) {
	good := [][]float64{{1, 2}, {3, 4}}
	if err := ValidateFit(good, []int{0, 1}); err != nil {
		t.Fatalf("valid input rejected: %v", err)
	}
	cases := []struct {
		name string
		X    [][]float64
		y    []int
	}{
		{"no rows", nil, nil},
		{"count mismatch", good, []int{0}},
		{"empty row", [][]float64{{}}, []int{0}},
		{"ragged", [][]float64{{1, 2}, {3}}, []int{0, 1}},
		{"nan", [][]float64{{math.NaN(), 1}}, []int{0}},
		{"inf", [][]float64{{math.Inf(1), 1}}, []int{0}},
		{"bad label", good, []int{0, 2}},
	}
	for _, c := range cases {
		if err := ValidateFit(c.X, c.y); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
}

func TestCheckPredict(t *testing.T) {
	CheckPredict([][]float64{{1, 2}}, 2) // must not panic
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on width mismatch")
		}
	}()
	CheckPredict([][]float64{{1}}, 2)
}

func TestMajorityLabel(t *testing.T) {
	if MajorityLabel([]int{0, 0, 1}) != 0 {
		t.Fatal("majority 0 wrong")
	}
	if MajorityLabel([]int{1, 1, 0}) != 1 {
		t.Fatal("majority 1 wrong")
	}
	if MajorityLabel([]int{0, 1}) != 1 {
		t.Fatal("tie must go to 1")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on empty")
		}
	}()
	MajorityLabel(nil)
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("empty mean")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("mean wrong")
	}
}

func TestSigmoid(t *testing.T) {
	if s := Sigmoid(0); s != 0.5 {
		t.Fatalf("Sigmoid(0) = %v", s)
	}
	if s := Sigmoid(1000); s != 1 {
		t.Fatalf("Sigmoid(1000) = %v", s)
	}
	if s := Sigmoid(-1000); s != 0 {
		t.Fatalf("Sigmoid(-1000) = %v", s)
	}
	// Symmetry: sigmoid(-x) = 1 - sigmoid(x).
	for _, x := range []float64{0.5, 2, 10} {
		if math.Abs(Sigmoid(-x)-(1-Sigmoid(x))) > 1e-12 {
			t.Fatalf("sigmoid asymmetric at %v", x)
		}
	}
}
