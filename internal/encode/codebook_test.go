package encode

import (
	"math"
	"testing"

	"hdfe/internal/hv"
	"hdfe/internal/rng"
)

func pimaLikeSchema() []Spec {
	return []Spec{
		{Name: "age", Kind: Continuous},
		{Name: "glucose", Kind: Continuous},
		{Name: "bmi", Kind: Continuous},
	}
}

func pimaLikeRows() [][]float64 {
	return [][]float64{
		{21, 80, 20},
		{40, 120, 30},
		{60, 198, 45},
		{35, 145, 36},
	}
}

func TestFitAndEncodeRecordDim(t *testing.T) {
	cb := Fit(rng.New(1), pimaLikeSchema(), pimaLikeRows(), Options{Dim: 2048})
	if cb.Dim() != 2048 {
		t.Fatalf("Dim = %d", cb.Dim())
	}
	if cb.NumFeatures() != 3 {
		t.Fatalf("NumFeatures = %d", cb.NumFeatures())
	}
	v := cb.EncodeRecord([]float64{30, 100, 25})
	if v.Dim() != 2048 {
		t.Fatalf("record dim = %d", v.Dim())
	}
}

func TestFitDefaultDimIs10k(t *testing.T) {
	cb := Fit(rng.New(2), pimaLikeSchema(), pimaLikeRows(), Options{})
	if cb.Dim() != DefaultDim {
		t.Fatalf("default dim = %d, want %d", cb.Dim(), DefaultDim)
	}
}

func TestEncodeRecordIsMajorityOfFeatures(t *testing.T) {
	cb := Fit(rng.New(3), pimaLikeSchema(), pimaLikeRows(), Options{Dim: 1000})
	row := []float64{40, 120, 30}
	feats := make([]hv.Vector, 3)
	for j := range feats {
		feats[j] = cb.EncodeFeature(j, row[j])
	}
	want := hv.Bundle(feats, hv.TieToOne)
	if !cb.EncodeRecord(row).Equal(want) {
		t.Fatal("EncodeRecord != majority bundle of feature vectors")
	}
}

func TestSimilarRecordsCloserThanDissimilar(t *testing.T) {
	// The core claim of the representation: proximity in feature space
	// maps to proximity in Hamming space.
	cb := Fit(rng.New(4), pimaLikeSchema(), pimaLikeRows(), Options{})
	base := cb.EncodeRecord([]float64{40, 120, 30})
	near := cb.EncodeRecord([]float64{42, 125, 31})
	far := cb.EncodeRecord([]float64{60, 198, 45})
	if hv.Hamming(base, near) >= hv.Hamming(base, far) {
		t.Fatalf("near record at %d, far record at %d", hv.Hamming(base, near), hv.Hamming(base, far))
	}
}

func TestFeatureSeedsIndependent(t *testing.T) {
	// "Each feature has a different seed hypervector."
	cb := Fit(rng.New(5), pimaLikeSchema(), pimaLikeRows(), Options{Dim: 4000})
	a := cb.EncodeFeature(0, 21)
	b := cb.EncodeFeature(1, 80)
	if a.Equal(b) {
		t.Fatal("two features share a seed")
	}
	if s := hv.Similarity(a, b); math.Abs(s-0.5) > 0.05 {
		t.Fatalf("distinct feature seeds have similarity %v, want ~0.5", s)
	}
}

func TestBinaryFeatureInCodebook(t *testing.T) {
	specs := []Spec{
		{Name: "age", Kind: Continuous},
		{Name: "polyuria", Kind: Binary},
	}
	X := [][]float64{{30, 0}, {50, 1}, {40, 0}}
	cb := Fit(rng.New(6), specs, X, Options{Dim: 2000})
	y0 := cb.EncodeFeature(1, 0)
	y1 := cb.EncodeFeature(1, 1)
	if d := hv.Hamming(y0, y1); d != 1000 {
		t.Fatalf("binary codewords at distance %d, want 1000", d)
	}
	// Unseen value buckets by midpoint.
	if !cb.EncodeFeature(1, 0.2).Equal(y0) {
		t.Fatal("0.2 did not bucket low")
	}
	if !cb.EncodeFeature(1, 0.9).Equal(y1) {
		t.Fatal("0.9 did not bucket high")
	}
}

func TestEncodeAllMatchesEncodeRecord(t *testing.T) {
	cb := Fit(rng.New(7), pimaLikeSchema(), pimaLikeRows(), Options{Dim: 1500})
	X := pimaLikeRows()
	all := cb.EncodeAll(X)
	if len(all) != len(X) {
		t.Fatalf("EncodeAll returned %d vectors", len(all))
	}
	for i, row := range X {
		if !all[i].Equal(cb.EncodeRecord(row)) {
			t.Fatalf("EncodeAll[%d] mismatch", i)
		}
	}
}

func TestEncodeAllFloats(t *testing.T) {
	cb := Fit(rng.New(8), pimaLikeSchema(), pimaLikeRows(), Options{Dim: 512})
	rows := pimaLikeRows()
	F := cb.EncodeAllFloats(rows)
	if len(F) != 4 || len(F[0]) != 512 {
		t.Fatalf("EncodeAllFloats shape = %dx%d", len(F), len(F[0]))
	}
	for i, row := range F {
		want := cb.EncodeRecord(rows[i]).Floats(nil)
		for j, v := range row {
			if v != 0 && v != 1 {
				t.Fatalf("non-binary float %v", v)
			}
			if v != want[j] {
				t.Fatalf("row %d col %d: %v, EncodeRecord gives %v", i, j, v, want[j])
			}
		}
	}
}

func TestFitDeterministic(t *testing.T) {
	a := Fit(rng.New(9), pimaLikeSchema(), pimaLikeRows(), Options{Dim: 1000})
	b := Fit(rng.New(9), pimaLikeSchema(), pimaLikeRows(), Options{Dim: 1000})
	row := []float64{33, 99, 28}
	if !a.EncodeRecord(row).Equal(b.EncodeRecord(row)) {
		t.Fatal("same-seed codebooks disagree")
	}
}

func TestBindBundleModeDiffersFromMajority(t *testing.T) {
	maj := Fit(rng.New(10), pimaLikeSchema(), pimaLikeRows(), Options{Dim: 1000, Mode: Majority})
	bb := Fit(rng.New(10), pimaLikeSchema(), pimaLikeRows(), Options{Dim: 1000, Mode: BindBundle})
	row := []float64{40, 120, 30}
	if maj.EncodeRecord(row).Equal(bb.EncodeRecord(row)) {
		t.Fatal("BindBundle produced the same record vector as Majority")
	}
	// BindBundle still maps similar records close together.
	near := bb.EncodeRecord([]float64{41, 121, 30})
	far := bb.EncodeRecord([]float64{60, 198, 45})
	base := bb.EncodeRecord(row)
	if hv.Hamming(base, near) >= hv.Hamming(base, far) {
		t.Fatal("BindBundle lost proximity structure")
	}
}

func TestTieToZeroOptionChangesEncoding(t *testing.T) {
	// With an even number of features ties occur; the rule must matter.
	specs := []Spec{
		{Name: "a", Kind: Continuous},
		{Name: "b", Kind: Continuous},
	}
	X := [][]float64{{0, 0}, {1, 1}}
	one := Fit(rng.New(11), specs, X, Options{Dim: 1000, Tie: hv.TieToOne})
	zero := Fit(rng.New(11), specs, X, Options{Dim: 1000, Tie: hv.TieToZero})
	row := []float64{0.5, 0.5}
	vOne, vZero := one.EncodeRecord(row), zero.EncodeRecord(row)
	if vOne.Equal(vZero) {
		t.Fatal("tie rule had no effect on an even bundle")
	}
	if vOne.OnesCount() <= vZero.OnesCount() {
		t.Fatal("TieToOne should set strictly more bits than TieToZero")
	}
}

func TestFitHandlesConstantColumn(t *testing.T) {
	specs := []Spec{{Name: "const", Kind: Continuous}, {Name: "x", Kind: Continuous}}
	X := [][]float64{{5, 1}, {5, 2}, {5, 3}}
	cb := Fit(rng.New(12), specs, X, Options{Dim: 500})
	if !cb.EncodeFeature(0, 5).Equal(cb.EncodeFeature(0, 99)) {
		t.Fatal("constant column encoder not constant")
	}
}

func TestFitPanics(t *testing.T) {
	specs := pimaLikeSchema()
	cases := []func(){
		func() { Fit(rng.New(1), nil, pimaLikeRows(), Options{}) },
		func() { Fit(rng.New(1), specs, nil, Options{}) },
		func() { Fit(rng.New(1), specs, [][]float64{{1, 2}}, Options{}) }, // short row
		func() {
			cb := Fit(rng.New(1), specs, pimaLikeRows(), Options{Dim: 100})
			cb.EncodeRecord([]float64{1})
		},
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

func TestSpecsCopy(t *testing.T) {
	cb := Fit(rng.New(13), pimaLikeSchema(), pimaLikeRows(), Options{Dim: 100})
	s := cb.Specs()
	s[0].Name = "mutated"
	if cb.Specs()[0].Name == "mutated" {
		t.Fatal("Specs exposed internal state")
	}
}

func TestKindString(t *testing.T) {
	if Continuous.String() != "continuous" || Binary.String() != "binary" {
		t.Fatal("Kind.String wrong")
	}
	if Kind(42).String() == "" {
		t.Fatal("unknown Kind empty")
	}
}
