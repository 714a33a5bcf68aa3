package core

import (
	"testing"

	"hdfe/internal/hv"
	"hdfe/internal/rng"
)

func fittedExtractor(t *testing.T, dim int) *Extractor {
	t.Helper()
	e := NewExtractor(Options{Dim: dim, Seed: 21})
	if err := e.FitDataset(toyDataset()); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestEncodeVisitsOrderSensitive(t *testing.T) {
	e := fittedExtractor(t, 2000)
	a := []float64{5, 5, 0}
	b := []float64{55, 55, 1}
	ab := EncodeVisits(e, [][]float64{a, b}, hv.TieToOne)
	ba := EncodeVisits(e, [][]float64{b, a}, hv.TieToOne)
	if ab.Equal(ba) {
		t.Fatal("visit order did not change the history encoding")
	}
	// But the same history encodes identically.
	ab2 := EncodeVisits(e, [][]float64{a, b}, hv.TieToOne)
	if !ab.Equal(ab2) {
		t.Fatal("history encoding not deterministic")
	}
}

func TestEncodeVisitsSimilarHistoriesClose(t *testing.T) {
	e := fittedExtractor(t, 4000)
	base := [][]float64{{5, 5, 0}, {10, 10, 0}, {15, 15, 0}}
	near := [][]float64{{6, 6, 0}, {11, 11, 0}, {16, 16, 0}}
	far := [][]float64{{55, 55, 1}, {58, 59, 1}, {60, 61, 1}}
	vb := EncodeVisits(e, base, hv.TieToOne)
	vn := EncodeVisits(e, near, hv.TieToOne)
	vf := EncodeVisits(e, far, hv.TieToOne)
	if hv.Hamming(vb, vn) >= hv.Hamming(vb, vf) {
		t.Fatalf("near history at %d, far history at %d", hv.Hamming(vb, vn), hv.Hamming(vb, vf))
	}
}

func TestEncodeVisitsSingleVisitIsRecord(t *testing.T) {
	e := fittedExtractor(t, 1000)
	visit := []float64{12, 30, 1}
	got := EncodeVisits(e, [][]float64{visit}, hv.TieToOne)
	if !got.Equal(e.TransformRecord(visit)) {
		t.Fatal("single-visit history must equal the record encoding (permute by 0)")
	}
}

func TestEncodeVisitsPanics(t *testing.T) {
	e := fittedExtractor(t, 500)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for empty history")
		}
	}()
	EncodeVisits(e, nil, hv.TieToOne)
}

func TestPrototypes(t *testing.T) {
	d := toyDataset()
	e := fittedExtractor(t, 2000)
	vs := e.Transform(d.X)
	neg, pos := Prototypes(vs, d.Y, hv.TieToOne)
	// Prototypes must classify the cohort well through affinity.
	correct := 0
	for i, v := range vs {
		pred := 0
		if ClassAffinity(v, neg, pos) >= 0.5 {
			pred = 1
		}
		if pred == d.Y[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(vs)); acc < 0.9 {
		t.Fatalf("prototype affinity accuracy %v", acc)
	}
}

func TestPrototypesPanics(t *testing.T) {
	vs := []hv.Vector{hv.New(16)}
	cases := []func(){
		func() { Prototypes(nil, nil, hv.TieToOne) },
		func() { Prototypes(vs, []int{2}, hv.TieToOne) },
		func() { Prototypes(vs, []int{1}, hv.TieToOne) }, // class 0 absent
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

// noisyCopies returns n copies of v, each with flips distinct random
// bits flipped.
func noisyCopies(r *rng.Source, v hv.Vector, n, flips int) []hv.Vector {
	out := make([]hv.Vector, n)
	for i := range out {
		out[i] = v.Clone()
		for _, b := range r.Perm(v.Dim())[:flips] {
			out[i].FlipBit(b)
		}
	}
	return out
}

// TestPrototypeIsBundleOfClass pins what the served model is: each class
// prototype is the majority bundle of that class's records.
func TestPrototypeIsBundleOfClass(t *testing.T) {
	r := rng.New(2)
	class0 := noisyCopies(r, hv.Rand(r, 500), 10, 30)
	class1 := noisyCopies(r, hv.Rand(r, 500), 10, 30)
	var vs []hv.Vector
	var y []int
	for i := range class0 {
		vs = append(vs, class0[i], class1[i])
		y = append(y, 0, 1)
	}
	neg, pos := Prototypes(vs, y, hv.TieToOne)
	if !neg.Equal(hv.Bundle(class0, hv.TieToOne)) || !pos.Equal(hv.Bundle(class1, hv.TieToOne)) {
		t.Fatal("class prototype != majority bundle of class members")
	}
}

// TestPrototypeDenoises: the bundle of many noisy copies sits closer to
// the clean vector than a typical copy does.
func TestPrototypeDenoises(t *testing.T) {
	r := rng.New(3)
	const d = 4000
	clean := hv.Rand(r, d)
	vs := noisyCopies(r, clean, 21, d/4)
	y := make([]int, len(vs))
	for i := range y {
		y[i] = 1
	}
	// One unrelated negative so both classes exist.
	vs = append(vs, hv.Rand(r, d))
	y = append(y, 0)
	_, pos := Prototypes(vs, y, hv.TieToOne)
	if hv.Hamming(pos, clean) >= hv.Hamming(vs[0], clean) {
		t.Fatalf("prototype at %d from clean, copy at %d — bundling failed to denoise",
			hv.Hamming(pos, clean), hv.Hamming(vs[0], clean))
	}
}

// TestClassAffinityNearestPrototypeRule pins the rule the served model
// and ablation D label by: ClassAffinity(v, neg, pos) >= 0.5 exactly
// when v is no farther from pos than from neg (ties to the positive
// class), including equal distances, a record equal to both prototypes,
// and distances one apart at the largest swept dimensionality.
func TestClassAffinityNearestPrototypeRule(t *testing.T) {
	r := rng.New(11)
	check := func(v, neg, pos hv.Vector) {
		t.Helper()
		got := ClassAffinity(v, neg, pos) >= 0.5
		if want := hv.Hamming(v, pos) <= hv.Hamming(v, neg); got != want {
			t.Fatalf("D=%d dNeg=%d dPos=%d: affinity %v, nearest-prototype rule says positive=%v",
				v.Dim(), hv.Hamming(v, neg), hv.Hamming(v, pos), ClassAffinity(v, neg, pos), want)
		}
	}
	for _, dim := range []int{1, 7, 64, 1000, 10000, 20000} {
		for trial := 0; trial < 50; trial++ {
			check(hv.Rand(r, dim), hv.Rand(r, dim), hv.Rand(r, dim))
		}
		v := hv.Rand(r, dim)
		check(v, v, v) // equal to both prototypes
		// Equal and one-apart distances: pos and neg flip disjoint bit
		// sets of v of sizes k and k-1, k and k, k and k+1.
		for _, k := range []int{1, dim / 4, dim/2 - 1} {
			for _, dk := range []int{-1, 0, 1} {
				if k < 1 || 2*k+dk > dim || k+dk < 0 {
					continue
				}
				perm := r.Perm(dim)
				pos, neg := v.Clone(), v.Clone()
				for _, b := range perm[:k] {
					pos.FlipBit(b)
				}
				for _, b := range perm[k : 2*k+dk] {
					neg.FlipBit(b)
				}
				check(v, neg, pos)
			}
		}
	}
}

func TestRiskTrajectoryTracksDrift(t *testing.T) {
	d := toyDataset()
	e := fittedExtractor(t, 4000)
	vs := e.Transform(d.X)
	neg, pos := Prototypes(vs, d.Y, hv.TieToOne)

	// A patient drifting from the healthy profile toward the sick one.
	visits := [][]float64{
		{2, 3, 0},
		{15, 18, 0},
		{30, 33, 0},
		{45, 48, 1},
		{55, 58, 1},
	}
	traj := RiskTrajectory(e, visits, neg, pos)
	if len(traj) != 5 {
		t.Fatalf("%d points", len(traj))
	}
	if traj[0].Delta != 0 {
		t.Fatal("first delta must be 0")
	}
	if traj[0].Score >= traj[len(traj)-1].Score {
		t.Fatalf("risk did not increase: %v -> %v", traj[0].Score, traj[len(traj)-1].Score)
	}
	// Deltas must be consistent with scores.
	for i := 1; i < len(traj); i++ {
		want := traj[i].Score - traj[i-1].Score
		if diff := traj[i].Delta - want; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("delta at %d inconsistent", i)
		}
	}
}

func TestRiskTrajectoryDimMismatchPanics(t *testing.T) {
	e := fittedExtractor(t, 500)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	RiskTrajectory(e, [][]float64{{1, 2, 0}}, hv.New(100), hv.New(100))
}
