package dataset

import (
	"math"
	"testing"
)

// Edge cases for missing.go beyond the basics in dataset_test.go:
// fully-missing inputs, single-row datasets, and metadata preservation.

func TestDropMissingAllRowsIncomplete(t *testing.T) {
	d := MustNew("allmiss",
		[]Feature{{Name: "a"}},
		[][]float64{{math.NaN()}, {math.NaN()}},
		[]int{0, 1},
	)
	out := DropMissing(d)
	if out.Len() != 0 {
		t.Fatalf("kept %d rows of fully-missing data", out.Len())
	}
	if out.NumFeatures() != 1 || out.Name != "allmiss" {
		t.Fatal("empty result lost schema or name")
	}
}

func TestDropMissingKeepsLabelsAligned(t *testing.T) {
	d := MustNew("labels",
		[]Feature{{Name: "a"}, {Name: "b"}},
		[][]float64{
			{1, 2},
			{math.NaN(), 2},
			{3, math.NaN()},
			{4, 5},
		},
		[]int{0, 1, 0, 1},
	)
	out := DropMissing(d)
	if out.Len() != 2 {
		t.Fatalf("kept %d rows, want 2", out.Len())
	}
	if out.Y[0] != 0 || out.Y[1] != 1 {
		t.Fatalf("labels misaligned after drop: %v", out.Y)
	}
	if d.Len() != 4 {
		t.Fatal("DropMissing mutated its input")
	}
}

func TestImputeClassMedianSingleRow(t *testing.T) {
	// One row, one missing cell: no per-class or overall median exists for
	// that column, so the documented 0 fallback applies; observed cells are
	// untouched.
	d := MustNew("onerow",
		[]Feature{{Name: "a"}, {Name: "b"}},
		[][]float64{{math.NaN(), 7}},
		[]int{1},
	)
	out := ImputeClassMedian(d)
	if out.X[0][0] != 0 {
		t.Fatalf("single-row all-missing column imputed to %v, want 0", out.X[0][0])
	}
	if out.X[0][1] != 7 {
		t.Fatalf("observed cell changed to %v", out.X[0][1])
	}
	if out.HasMissing() {
		t.Fatal("missing cells survived imputation")
	}
}

func TestImputeClassMedianAllMissingColumnBesideObserved(t *testing.T) {
	// A fully missing column must get the 0 fallback without disturbing the
	// imputation of its neighbours.
	d := MustNew("mixedcols",
		[]Feature{{Name: "gone"}, {Name: "ok"}},
		[][]float64{
			{math.NaN(), 1},
			{math.NaN(), math.NaN()},
			{math.NaN(), 3},
		},
		[]int{0, 0, 0},
	)
	out := ImputeClassMedian(d)
	for i := range out.X {
		if out.X[i][0] != 0 {
			t.Fatalf("all-missing column imputed to %v at row %d, want 0", out.X[i][0], i)
		}
	}
	// ok column: class 0 observes {1, 3} -> median 2.
	if out.X[1][1] != 2 {
		t.Fatalf("neighbour column imputed to %v, want 2", out.X[1][1])
	}
	if out.HasMissing() {
		t.Fatal("missing cells survived imputation")
	}
}

func TestImputeClassMedianNoMissingIsIdentity(t *testing.T) {
	d := MustNew("clean",
		[]Feature{{Name: "a"}, {Name: "b"}},
		[][]float64{{1, 2}, {3, 4}},
		[]int{0, 1},
	)
	out := ImputeClassMedian(d)
	for i := range d.X {
		for j := range d.X[i] {
			if out.X[i][j] != d.X[i][j] {
				t.Fatalf("cell (%d,%d) changed from %v to %v", i, j, d.X[i][j], out.X[i][j])
			}
		}
	}
}
