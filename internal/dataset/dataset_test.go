package dataset

import (
	"math"
	"testing"
)

func smallDataset(t *testing.T) *Dataset {
	t.Helper()
	return MustNew("toy",
		[]Feature{{Name: "a", Kind: Continuous}, {Name: "b", Kind: Binary}},
		[][]float64{{1, 0}, {2, 1}, {3, 0}, {4, 1}, {5, 1}},
		[]int{0, 0, 1, 1, 1},
	)
}

func TestNewValidation(t *testing.T) {
	feats := []Feature{{Name: "a"}}
	cases := []struct {
		name  string
		feats []Feature
		X     [][]float64
		y     []int
	}{
		{"empty schema", nil, [][]float64{{1}}, []int{0}},
		{"row/label mismatch", feats, [][]float64{{1}}, []int{0, 1}},
		{"ragged row", feats, [][]float64{{1, 2}}, []int{0}},
		{"bad label", feats, [][]float64{{1}}, []int{2}},
	}
	for _, c := range cases {
		if _, err := New("x", c.feats, c.X, c.y); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
	if _, err := New("ok", feats, [][]float64{{1}}, []int{1}); err != nil {
		t.Fatalf("valid dataset rejected: %v", err)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	MustNew("bad", nil, nil, nil)
}

func TestClassCounts(t *testing.T) {
	d := smallDataset(t)
	neg, pos := d.ClassCounts()
	if neg != 2 || pos != 3 {
		t.Fatalf("counts = (%d,%d), want (2,3)", neg, pos)
	}
}

func TestCloneIsDeep(t *testing.T) {
	d := smallDataset(t)
	c := d.Clone()
	c.X[0][0] = 99
	c.Y[0] = 1
	c.Features[0].Name = "mutated"
	if d.X[0][0] == 99 || d.Y[0] == 1 || d.Features[0].Name == "mutated" {
		t.Fatal("Clone shares state with original")
	}
}

func TestSubset(t *testing.T) {
	d := smallDataset(t)
	s := d.Subset([]int{4, 0})
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.X[0][0] != 5 || s.Y[0] != 1 || s.X[1][0] != 1 || s.Y[1] != 0 {
		t.Fatal("Subset rows wrong or out of order")
	}
}

func TestMissingDetection(t *testing.T) {
	d := smallDataset(t)
	if d.HasMissing() || d.MissingCount() != 0 {
		t.Fatal("clean dataset reports missing")
	}
	d2 := d.Clone()
	d2.X[1][0] = math.NaN()
	d2.X[3][1] = math.NaN()
	if !d2.HasMissing() || d2.MissingCount() != 2 {
		t.Fatalf("HasMissing=%v count=%d", d2.HasMissing(), d2.MissingCount())
	}
}

func TestDropMissing(t *testing.T) {
	d := smallDataset(t).Clone()
	d.X[1][0] = math.NaN()
	d.X[4][1] = math.NaN()
	r := DropMissing(d)
	if r.Len() != 3 {
		t.Fatalf("DropMissing kept %d rows, want 3", r.Len())
	}
	if r.HasMissing() {
		t.Fatal("result still has missing values")
	}
	// Row identity: kept rows are 0,2,3.
	if r.X[0][0] != 1 || r.X[1][0] != 3 || r.X[2][0] != 4 {
		t.Fatal("wrong rows kept")
	}
}

func TestImputeClassMedian(t *testing.T) {
	d := MustNew("imp",
		[]Feature{{Name: "v", Kind: Continuous}},
		[][]float64{{1}, {3}, {math.NaN()}, {10}, {20}, {math.NaN()}},
		[]int{0, 0, 0, 1, 1, 1},
	)
	r := ImputeClassMedian(d)
	// Class 0 observed: 1,3 -> median 2. Class 1 observed: 10,20 -> 15.
	if r.X[2][0] != 2 {
		t.Fatalf("class-0 imputation = %v, want 2", r.X[2][0])
	}
	if r.X[5][0] != 15 {
		t.Fatalf("class-1 imputation = %v, want 15", r.X[5][0])
	}
	// Original untouched.
	if !math.IsNaN(d.X[2][0]) {
		t.Fatal("ImputeClassMedian mutated its input")
	}
}

func TestImputeFallsBackToOverallMedian(t *testing.T) {
	d := MustNew("imp2",
		[]Feature{{Name: "v", Kind: Continuous}},
		[][]float64{{math.NaN()}, {4}, {6}},
		[]int{1, 0, 0}, // class 1 has no observed values
	)
	r := ImputeClassMedian(d)
	if r.X[0][0] != 5 {
		t.Fatalf("fallback imputation = %v, want overall median 5", r.X[0][0])
	}
}

func TestImputeAllMissingColumn(t *testing.T) {
	d := MustNew("imp3",
		[]Feature{{Name: "v", Kind: Continuous}},
		[][]float64{{math.NaN()}, {math.NaN()}},
		[]int{0, 1},
	)
	r := ImputeClassMedian(d)
	if r.X[0][0] != 0 || r.X[1][0] != 0 {
		t.Fatal("all-missing column should impute 0")
	}
}

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{[]float64{5}, 5},
		{[]float64{1, 3}, 2},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		if got := Median(c.in); got != c.want {
			t.Errorf("Median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	// Median must not reorder its input.
	in := []float64{3, 1, 2}
	Median(in)
	if in[0] != 3 {
		t.Fatal("Median mutated input")
	}
}

func TestMedianPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Median(nil)
}

func TestKindString(t *testing.T) {
	if Continuous.String() != "continuous" || Binary.String() != "binary" {
		t.Fatal("Kind names wrong")
	}
	if Kind(9).String() == "" {
		t.Fatal("unknown kind empty")
	}
}
