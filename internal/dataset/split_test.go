package dataset

import (
	"testing"

	"hdfe/internal/rng"
)

func balancedDataset(t *testing.T, neg, pos int) *Dataset {
	t.Helper()
	var X [][]float64
	var y []int
	for i := 0; i < neg; i++ {
		X = append(X, []float64{float64(i)})
		y = append(y, 0)
	}
	for i := 0; i < pos; i++ {
		X = append(X, []float64{float64(1000 + i)})
		y = append(y, 1)
	}
	return MustNew("split-test", []Feature{{Name: "x", Kind: Continuous}}, X, y)
}

func TestStratifiedKFoldPartition(t *testing.T) {
	d := balancedDataset(t, 60, 40)
	folds := StratifiedKFold(d, 10, rng.New(1))
	if len(folds) != 10 {
		t.Fatalf("%d folds", len(folds))
	}
	seen := make([]int, d.Len())
	for _, f := range folds {
		if len(f.Train)+len(f.Test) != d.Len() {
			t.Fatalf("fold covers %d rows", len(f.Train)+len(f.Test))
		}
		for _, i := range f.Test {
			seen[i]++
		}
		inTrain := map[int]bool{}
		for _, i := range f.Train {
			inTrain[i] = true
		}
		for _, i := range f.Test {
			if inTrain[i] {
				t.Fatal("row in both train and test")
			}
		}
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("row %d tested %d times", i, c)
		}
	}
}

func TestStratifiedKFoldPreservesBalance(t *testing.T) {
	d := balancedDataset(t, 60, 40)
	folds := StratifiedKFold(d, 10, rng.New(2))
	for fi, f := range folds {
		pos := 0
		for _, i := range f.Test {
			pos += d.Y[i]
		}
		// 40 positives over 10 folds -> exactly 4 per fold.
		if pos != 4 {
			t.Fatalf("fold %d has %d positives in test, want 4", fi, pos)
		}
	}
}

func TestStratifiedKFoldPanics(t *testing.T) {
	d := balancedDataset(t, 5, 3)
	cases := []func(){
		func() { StratifiedKFold(d, 1, rng.New(1)) },
		func() { StratifiedKFold(d, 4, rng.New(1)) }, // class 1 has 3 < 4
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

func TestStratifiedSplitFractions(t *testing.T) {
	d := balancedDataset(t, 200, 100)
	train, test := StratifiedSplit(d, 0.9, rng.New(3))
	if len(train)+len(test) != 300 {
		t.Fatalf("split sizes %d+%d", len(train), len(test))
	}
	if len(train) != 270 || len(test) != 30 {
		t.Fatalf("90/10 split = %d/%d", len(train), len(test))
	}
	posTest := 0
	for _, i := range test {
		posTest += d.Y[i]
	}
	if posTest != 10 {
		t.Fatalf("test positives = %d, want 10", posTest)
	}
}

func TestStratifiedSplitDisjoint(t *testing.T) {
	d := balancedDataset(t, 30, 20)
	a, b := StratifiedSplit(d, 0.7, rng.New(4))
	seen := map[int]bool{}
	for _, i := range append(append([]int{}, a...), b...) {
		if seen[i] {
			t.Fatalf("row %d appears twice", i)
		}
		seen[i] = true
	}
	if len(seen) != 50 {
		t.Fatalf("covered %d rows", len(seen))
	}
}

func TestStratifiedSplitPanicsOnBadFraction(t *testing.T) {
	d := balancedDataset(t, 4, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	StratifiedSplit(d, 1.5, rng.New(1))
}

func TestTrainValTest(t *testing.T) {
	d := balancedDataset(t, 200, 100)
	train, val, test := TrainValTest(d, 0.7, 0.15, rng.New(5))
	total := len(train) + len(val) + len(test)
	if total != 300 {
		t.Fatalf("covered %d rows", total)
	}
	if len(train) != 210 {
		t.Fatalf("train = %d, want 210", len(train))
	}
	if len(val) != 45 || len(test) != 45 {
		t.Fatalf("val/test = %d/%d, want 45/45", len(val), len(test))
	}
	seen := map[int]bool{}
	for _, idx := range [][]int{train, val, test} {
		for _, i := range idx {
			if seen[i] {
				t.Fatalf("row %d in two splits", i)
			}
			seen[i] = true
		}
	}
}

func TestSplitsDeterministic(t *testing.T) {
	d := balancedDataset(t, 50, 30)
	a1, b1 := StratifiedSplit(d, 0.8, rng.New(7))
	a2, b2 := StratifiedSplit(d, 0.8, rng.New(7))
	if len(a1) != len(a2) || len(b1) != len(b2) {
		t.Fatal("sizes differ")
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatal("same-seed splits differ")
		}
	}
}
