package hdfe

// End-to-end integration tests crossing every module boundary: synthetic
// data -> CSV round trip -> missing-data preparation -> hyperdimensional
// encoding -> models -> evaluation protocols. These run at reduced
// dimensionality so the suite stays fast; the full-scale runs live in
// cmd/hdbench and EXPERIMENTS.md.

import (
	"bytes"
	"testing"

	"hdfe/internal/core"
	"hdfe/internal/dataset"
	"hdfe/internal/eval"
	"hdfe/internal/metrics"
	"hdfe/internal/ml"
	"hdfe/internal/ml/forest"
	"hdfe/internal/ml/linear"
	"hdfe/internal/rng"
	"hdfe/internal/synth"
)

const integrationDim = 1024

func TestEndToEndCSVRoundTripAndClassify(t *testing.T) {
	// Generate -> write CSV -> read CSV -> prepare -> encode -> classify.
	orig := synth.Pima(synth.DefaultPimaConfig(7))
	var buf bytes.Buffer
	if err := dataset.WriteCSV(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := dataset.ReadCSV(&buf, "Pima", dataset.CSVOptions{LabelColumn: "label"})
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != orig.Len() || back.MissingCount() != orig.MissingCount() {
		t.Fatalf("round trip lost data: %d rows / %d missing vs %d / %d",
			back.Len(), back.MissingCount(), orig.Len(), orig.MissingCount())
	}
	pimaR := dataset.DropMissing(back)
	conf, err := core.HammingLOO(pimaR, core.Options{Dim: integrationDim, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	neg, _ := pimaR.ClassCounts()
	majority := float64(neg) / float64(pimaR.Len())
	if conf.Accuracy() < majority-0.12 {
		t.Fatalf("LOO accuracy %.3f far below majority baseline %.3f", conf.Accuracy(), majority)
	}
}

func TestSGDGainsFromHypervectors(t *testing.T) {
	// The paper's clearest effect: SGD on raw (unscaled) clinical features
	// is weak; on 0/1 hypervectors it improves by several points.
	d := synth.PimaM(11)
	_, hvFloats, err := core.EncodeDataset(d, core.Options{Dim: integrationDim, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	folds := dataset.StratifiedKFold(d, 5, rng.New(3))
	factory := func(seed uint64) ml.Factory {
		src := rng.New(seed)
		return func() ml.Classifier { return linear.NewSGD(src.Uint64()) }
	}
	feat, err := eval.CrossValidate(factory(1), d.X, d.Y, folds)
	if err != nil {
		t.Fatal(err)
	}
	hyper, err := eval.CrossValidate(factory(2), hvFloats, d.Y, folds)
	if err != nil {
		t.Fatal(err)
	}
	featScore, hvScore := eval.CVScore(feat), eval.CVScore(hyper)
	if hvScore <= featScore {
		t.Fatalf("SGD did not gain from hypervectors: features %.3f, hypervectors %.3f",
			featScore, hvScore)
	}
}

func TestPipelineMatchesManualEncodeForSameSeed(t *testing.T) {
	// The leakage-free Pipeline, fitted on the full dataset, must agree
	// with manual encode-then-fit using the same seed and model.
	d := synth.Sylhet(synth.SylhetConfig{Seed: 5, Pos: 60, Neg: 40})
	opts := core.Options{Dim: 512, Seed: 9}

	pipe := core.NewPipeline(core.SpecsFor(d.Features), opts,
		forest.New(forest.Params{NumTrees: 20, Seed: 1}))
	if err := pipe.Fit(d.X, d.Y); err != nil {
		t.Fatal(err)
	}

	ext := core.NewExtractor(opts)
	if err := ext.FitDataset(d); err != nil {
		t.Fatal(err)
	}
	manual := forest.New(forest.Params{NumTrees: 20, Seed: 1})
	if err := manual.Fit(ext.TransformFloats(d.X), d.Y); err != nil {
		t.Fatal(err)
	}

	pp := pipe.Predict(d.X)
	mp := manual.Predict(ext.TransformFloats(d.X))
	for i := range pp {
		if pp[i] != mp[i] {
			t.Fatalf("pipeline and manual encode disagree at row %d", i)
		}
	}
}

func TestHammingLOOConsistentAcrossRepresentations(t *testing.T) {
	// hamming.LeaveOneOut on vectors must equal a naive nearest-neighbour
	// leave-one-out over the 0/1 float form of the same encoding.
	d := synth.Sylhet(synth.SylhetConfig{Seed: 6, Pos: 40, Neg: 30})
	_, fs, err := core.EncodeDataset(d, core.Options{Dim: 256, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i, a := range fs {
		// The first nearest other row, by count of differing cells.
		best, bestDist := -1, 0
		for j, b := range fs {
			if j == i {
				continue
			}
			dist := 0
			for k := range a {
				if a[k] != b[k] {
					dist++
				}
			}
			if best == -1 || dist < bestDist {
				best, bestDist = j, dist
			}
		}
		if d.Y[best] == d.Y[i] {
			correct++
		}
	}
	generic := float64(correct) / float64(len(fs))

	direct, err := core.HammingLOO(d, core.Options{Dim: 256, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if generic != direct.Accuracy() {
		t.Fatalf("float-form LOO %.4f != direct LOO %.4f", generic, direct.Accuracy())
	}
}

func TestMetricsAgreeWithManualCount(t *testing.T) {
	// Full-stack sanity: train a forest on Sylhet, hand-count its test
	// confusion and compare against metrics.NewConfusion.
	d := synth.Sylhet(synth.DefaultSylhetConfig(8))
	train, test := dataset.StratifiedSplit(d, 0.8, rng.New(2))
	trX, trY := eval.Select(d.X, d.Y, train)
	teX, teY := eval.Select(d.X, d.Y, test)
	f := forest.New(forest.Params{NumTrees: 30, Seed: 3})
	if err := f.Fit(trX, trY); err != nil {
		t.Fatal(err)
	}
	pred := f.Predict(teX)
	var tp, tn, fp, fn int
	for i := range pred {
		switch {
		case teY[i] == 1 && pred[i] == 1:
			tp++
		case teY[i] == 0 && pred[i] == 0:
			tn++
		case teY[i] == 0 && pred[i] == 1:
			fp++
		default:
			fn++
		}
	}
	c := metrics.NewConfusion(teY, pred)
	if c.TP != tp || c.TN != tn || c.FP != fp || c.FN != fn {
		t.Fatalf("confusion %v != manual (%d,%d,%d,%d)", c, tp, tn, fp, fn)
	}
}
