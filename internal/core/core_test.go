package core

import (
	"math"
	"testing"

	"hdfe/internal/dataset"
	"hdfe/internal/encode"
	"hdfe/internal/hv"
	"hdfe/internal/ml/knn"
	"hdfe/internal/rng"
	"hdfe/internal/synth"
)

func toyDataset() *dataset.Dataset {
	// Two well-separated classes on two continuous features plus one
	// binary feature aligned with the class.
	var X [][]float64
	var y []int
	r := rng.New(99)
	for i := 0; i < 60; i++ {
		label := i % 2
		base := float64(label) * 50
		X = append(X, []float64{base + r.Float64()*10, base + r.Float64()*10, float64(label)})
		y = append(y, label)
	}
	return dataset.MustNew("toy", []dataset.Feature{
		{Name: "a", Kind: dataset.Continuous},
		{Name: "b", Kind: dataset.Continuous},
		{Name: "flag", Kind: dataset.Binary},
	}, X, y)
}

func TestSpecsFor(t *testing.T) {
	d := toyDataset()
	specs := SpecsFor(d.Features)
	if len(specs) != 3 {
		t.Fatalf("%d specs", len(specs))
	}
	if specs[0].Kind != encode.Continuous || specs[2].Kind != encode.Binary {
		t.Fatal("kinds not translated")
	}
	if specs[1].Name != "b" {
		t.Fatal("names not carried")
	}
}

func TestExtractorFitTransform(t *testing.T) {
	d := toyDataset()
	e := NewExtractor(Options{Dim: 2000, Seed: 1})
	if err := e.FitDataset(d); err != nil {
		t.Fatal(err)
	}
	if e.Dim() != 2000 {
		t.Fatalf("Dim=%d", e.Dim())
	}
	vs := e.Transform(d.X)
	if len(vs) != d.Len() || vs[0].Dim() != 2000 {
		t.Fatal("Transform shape wrong")
	}
	fs := e.TransformFloats(d.X)
	for i := range vs {
		want := vs[i].Floats(nil)
		for j := range want {
			if fs[i][j] != want[j] {
				t.Fatalf("TransformFloats[%d][%d] mismatch", i, j)
			}
		}
	}
	single := e.TransformRecord(d.X[0])
	if !single.Equal(vs[0]) {
		t.Fatal("TransformRecord != Transform[0]")
	}
}

func TestExtractorDefaultDim(t *testing.T) {
	e := NewExtractor(Options{Seed: 2})
	if err := e.FitDataset(toyDataset()); err != nil {
		t.Fatal(err)
	}
	if e.Dim() != encode.DefaultDim {
		t.Fatalf("default dim %d", e.Dim())
	}
}

func TestExtractorSeparatesClasses(t *testing.T) {
	d := toyDataset()
	e := NewExtractor(Options{Dim: 4000, Seed: 3})
	if err := e.FitDataset(d); err != nil {
		t.Fatal(err)
	}
	vs := e.Transform(d.X)
	// Same-class records must be closer on average than cross-class ones.
	var same, cross, nSame, nCross float64
	for i := 0; i < len(vs); i++ {
		for j := i + 1; j < len(vs); j++ {
			dist := float64(hv.Hamming(vs[i], vs[j]))
			if d.Y[i] == d.Y[j] {
				same += dist
				nSame++
			} else {
				cross += dist
				nCross++
			}
		}
	}
	if same/nSame >= cross/nCross {
		t.Fatalf("mean same-class distance %.1f >= cross-class %.1f", same/nSame, cross/nCross)
	}
}

func TestExtractorErrors(t *testing.T) {
	e := NewExtractor(Options{Dim: 100})
	if err := e.Fit(nil, [][]float64{{1}}); err == nil {
		t.Fatal("empty schema accepted")
	}
	if err := e.Fit([]encode.Spec{{Name: "x"}}, nil); err == nil {
		t.Fatal("empty matrix accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on unfitted use")
		}
	}()
	e.Transform([][]float64{{1}})
}

func TestPipelineClassifies(t *testing.T) {
	d := toyDataset()
	p := NewPipeline(SpecsFor(d.Features), Options{Dim: 2000, Seed: 4}, knn.New(3))
	if err := p.Fit(d.X, d.Y); err != nil {
		t.Fatal(err)
	}
	pred := p.Predict(d.X)
	correct := 0
	for i := range pred {
		if pred[i] == d.Y[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(pred)); acc < 0.95 {
		t.Fatalf("pipeline accuracy %v", acc)
	}
}

func TestPipelineRefitsPerFit(t *testing.T) {
	// Fitting on different subsets must re-fit the extractor: ranges from
	// the first fit must not leak into the second.
	d := toyDataset()
	p := NewPipeline(SpecsFor(d.Features), Options{Dim: 500, Seed: 5}, knn.New(1))
	if err := p.Fit(d.X[:30], d.Y[:30]); err != nil {
		t.Fatal(err)
	}
	first := p.ext
	if err := p.Fit(d.X[30:], d.Y[30:]); err != nil {
		t.Fatal(err)
	}
	if p.ext == first {
		t.Fatal("extractor not re-fitted")
	}
}

func TestPipelinePanics(t *testing.T) {
	d := toyDataset()
	cases := []func(){
		func() { NewPipeline(SpecsFor(d.Features), Options{}, nil) },
		func() {
			p := NewPipeline(SpecsFor(d.Features), Options{Dim: 100}, knn.New(1))
			p.Predict(d.X)
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

func TestHammingLOOOnToyData(t *testing.T) {
	d := toyDataset()
	c, err := HammingLOO(d, Options{Dim: 2000, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if c.Total() != d.Len() {
		t.Fatalf("LOO total %d", c.Total())
	}
	if acc := c.Accuracy(); acc < 0.9 {
		t.Fatalf("LOO accuracy %v on separable toy data", acc)
	}
}

func TestHammingLOOOnSylhetIsStrong(t *testing.T) {
	if testing.Short() {
		t.Skip("synthetic Sylhet LOO is slow in -short mode")
	}
	d := synth.Sylhet(synth.DefaultSylhetConfig(7))
	c, err := HammingLOO(d, Options{Dim: 4000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// The paper reports 95.9% at D=10k; at D=4k on synthetic data we
	// accept anything clearly strong.
	if acc := c.Accuracy(); acc < 0.85 {
		t.Fatalf("Sylhet LOO accuracy %v, want >= 0.85", acc)
	}
}

func TestEncodeDataset(t *testing.T) {
	d := toyDataset()
	vs, fs, err := EncodeDataset(d, Options{Dim: 1000, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != d.Len() || len(fs) != d.Len() {
		t.Fatal("shapes wrong")
	}
	for i := range vs {
		if vs[i].Dim() != 1000 || len(fs[i]) != 1000 {
			t.Fatal("dims wrong")
		}
		ones := 0
		for _, v := range fs[i] {
			if v == 1 {
				ones++
			} else if v != 0 {
				t.Fatal("non-binary float")
			}
		}
		if ones != vs[i].OnesCount() {
			t.Fatal("float form disagrees with vector form")
		}
	}
}

func TestEncodeDeterministicAcrossCalls(t *testing.T) {
	d := toyDataset()
	a, _, err := EncodeDataset(d, Options{Dim: 800, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := EncodeDataset(d, Options{Dim: 800, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatal("same-seed encodings differ")
		}
	}
}

func TestBindBundleOption(t *testing.T) {
	d := toyDataset()
	maj, _, err := EncodeDataset(d, Options{Dim: 1000, Seed: 10, Mode: encode.Majority})
	if err != nil {
		t.Fatal(err)
	}
	bb, _, err := EncodeDataset(d, Options{Dim: 1000, Seed: 10, Mode: encode.BindBundle})
	if err != nil {
		t.Fatal(err)
	}
	if maj[0].Equal(bb[0]) {
		t.Fatal("BindBundle produced same encoding as Majority")
	}
}

func TestPimaRHammingLOOInPaperBand(t *testing.T) {
	if testing.Short() {
		t.Skip("full-dim Pima LOO is slow in -short mode")
	}
	d := synth.PimaR(11)
	c, err := HammingLOO(d, Options{Dim: 10000, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 70.7% on Pima R. Synthetic data should land broadly nearby;
	// guard against degenerate (chance ~ 0.5 / majority 0.67) collapse
	// and against absurd perfection.
	acc := c.Accuracy()
	if acc < 0.60 || acc > 0.95 {
		t.Fatalf("Pima R LOO accuracy %v outside plausible band", acc)
	}
	if math.IsNaN(c.F1()) {
		t.Fatal("degenerate confusion matrix")
	}
}
