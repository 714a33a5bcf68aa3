package metrics

import (
	"math"
	"testing"
)

func TestConfusionCounts(t *testing.T) {
	yTrue := []int{1, 1, 1, 0, 0, 0, 1, 0}
	yPred := []int{1, 1, 0, 0, 1, 0, 1, 0}
	c := NewConfusion(yTrue, yPred)
	if c.TP != 3 || c.FN != 1 || c.FP != 1 || c.TN != 3 {
		t.Fatalf("got %v", c)
	}
	if c.Total() != 8 {
		t.Fatalf("Total = %d", c.Total())
	}
}

func TestConfusionPanics(t *testing.T) {
	cases := []func(){
		func() { NewConfusion([]int{1}, []int{1, 0}) },
		func() { NewConfusion([]int{2}, []int{1}) },
		func() { NewConfusion([]int{1}, []int{-1}) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestMetricValues(t *testing.T) {
	c := Confusion{TP: 40, TN: 30, FP: 10, FN: 20}
	if got := c.Accuracy(); got != 0.7 {
		t.Errorf("Accuracy = %v", got)
	}
	if got := c.Precision(); got != 0.8 {
		t.Errorf("Precision = %v", got)
	}
	if got := c.Recall(); math.Abs(got-2.0/3.0) > 1e-12 {
		t.Errorf("Recall = %v", got)
	}
	if got := c.Specificity(); got != 0.75 {
		t.Errorf("Specificity = %v", got)
	}
	wantF1 := 2 * 0.8 * (2.0 / 3.0) / (0.8 + 2.0/3.0)
	if got := c.F1(); math.Abs(got-wantF1) > 1e-12 {
		t.Errorf("F1 = %v, want %v", got, wantF1)
	}
}

func TestMetricsEdgeCases(t *testing.T) {
	empty := Confusion{}
	if !math.IsNaN(empty.Accuracy()) || !math.IsNaN(empty.Precision()) ||
		!math.IsNaN(empty.Recall()) || !math.IsNaN(empty.Specificity()) || !math.IsNaN(empty.F1()) {
		t.Fatal("empty confusion should yield NaN everywhere")
	}
	// All predicted negative: precision undefined, recall zero.
	c := NewConfusion([]int{1, 0}, []int{0, 0})
	if !math.IsNaN(c.Precision()) {
		t.Fatal("precision with no positive predictions should be NaN")
	}
	if c.Recall() != 0 {
		t.Fatal("recall should be 0")
	}
	if !math.IsNaN(c.F1()) {
		t.Fatal("F1 should be NaN when precision is NaN")
	}
}

func TestPerfectAndWorst(t *testing.T) {
	perfect := NewConfusion([]int{1, 0, 1}, []int{1, 0, 1})
	if perfect.Accuracy() != 1 || perfect.F1() != 1 {
		t.Fatal("perfect classifier scores wrong")
	}
	inverted := NewConfusion([]int{1, 0}, []int{0, 1})
	if inverted.Accuracy() != 0 {
		t.Fatal("inverted classifier accuracy != 0")
	}
}

func TestSummarizeMatchesIndividual(t *testing.T) {
	c := Confusion{TP: 7, TN: 5, FP: 2, FN: 3}
	r := c.Summarize()
	if r.Precision != c.Precision() || r.Recall != c.Recall() ||
		r.Specificity != c.Specificity() || r.F1 != c.F1() || r.Accuracy != c.Accuracy() {
		t.Fatal("Report disagrees with methods")
	}
}

func TestAccuracyHelper(t *testing.T) {
	if got := Accuracy([]int{1, 1, 0, 0}, []int{1, 0, 0, 0}); got != 0.75 {
		t.Fatalf("Accuracy = %v", got)
	}
}

func TestConfusionString(t *testing.T) {
	if (Confusion{TP: 1}).String() == "" {
		t.Fatal("empty String")
	}
}
