// Package core is the paper's contribution as a library: hyperdimensional
// feature extraction for tabular classification. It ties the substrates
// together —
//
//   - Extractor fits the paper's encoders (encode.Codebook) on training
//     data and turns records into 10,000-bit hypervectors;
//   - Pipeline wraps any ml.Classifier behind an Extractor, giving the
//     paper's hybrid HDC+ML models as ordinary classifiers (the codebook is
//     re-fitted inside every Fit, so cross-validation stays leakage-free);
//   - HammingLOO runs the paper's pure-HDC model end to end: encode every
//     record, classify by nearest neighbour under Hamming distance,
//     validate leave-one-out.
package core

import (
	"fmt"

	"hdfe/internal/dataset"
	"hdfe/internal/encode"
	"hdfe/internal/hv"
	"hdfe/internal/metrics"
	"hdfe/internal/ml"
	"hdfe/internal/ml/hamming"
	"hdfe/internal/rng"
)

// rngFor builds the deterministic stream all encoder randomness flows from.
func rngFor(seed uint64) *rng.Source { return rng.New(seed) }

// Options configures hyperdimensional feature extraction. The zero value
// reproduces the paper: D = 10,000, majority bundling, ties to one.
type Options struct {
	// Dim is the hypervector dimensionality (0 = 10,000).
	Dim int
	// Tie is the majority tie-break (default: ties to one).
	Tie hv.TieBreak
	// Mode selects record combination: Majority (paper) or BindBundle.
	Mode encode.Mode
	// Seed drives all encoder randomness.
	Seed uint64
}

func (o Options) encodeOptions() encode.Options {
	return encode.Options{Dim: o.Dim, Tie: o.Tie, Mode: o.Mode}
}

// SpecsFor translates a dataset schema into encoder specs: continuous
// features get the linear (level) encoding, binary features the
// seed/orthogonal pair.
func SpecsFor(features []dataset.Feature) []encode.Spec {
	specs := make([]encode.Spec, len(features))
	for i, f := range features {
		kind := encode.Continuous
		if f.Kind == dataset.Binary {
			kind = encode.Binary
		}
		specs[i] = encode.Spec{Name: f.Name, Kind: kind}
	}
	return specs
}

// Extractor is a fitted hyperdimensional feature extractor.
type Extractor struct {
	opts Options
	cb   *encode.Codebook
}

// NewExtractor returns an unfitted extractor.
func NewExtractor(opts Options) *Extractor { return &Extractor{opts: opts} }

// Fit builds the codebook from the training matrix (ranges, seeds, flip
// orders). specs must describe X's columns.
func (e *Extractor) Fit(specs []encode.Spec, X [][]float64) error {
	if len(specs) == 0 {
		return fmt.Errorf("core: empty schema")
	}
	if len(X) == 0 {
		return fmt.Errorf("core: no training rows")
	}
	e.cb = encode.Fit(rngFor(e.opts.Seed), specs, X, e.opts.encodeOptions())
	return nil
}

// FitDataset is Fit applied to a dataset's schema and matrix.
func (e *Extractor) FitDataset(d *dataset.Dataset) error {
	return e.Fit(SpecsFor(d.Features), d.X)
}

// Dim returns the hypervector dimensionality after fitting.
func (e *Extractor) Dim() int {
	e.mustFit()
	return e.cb.Dim()
}

// Transform encodes rows into hypervectors.
func (e *Extractor) Transform(X [][]float64) []hv.Vector {
	e.mustFit()
	return e.cb.EncodeAll(X)
}

// TransformFloats encodes rows into 0/1 float matrices for downstream ML
// models (the paper's hybrid representation).
func (e *Extractor) TransformFloats(X [][]float64) [][]float64 {
	e.mustFit()
	return e.cb.EncodeAllFloats(X)
}

// TransformRecord encodes a single record.
func (e *Extractor) TransformRecord(row []float64) hv.Vector {
	e.mustFit()
	return e.cb.EncodeRecord(row)
}

// TransformRecordInto encodes a single record into dst using the caller's
// scratch, with zero allocations. See encode.Codebook.EncodeRecordInto for
// the ownership rules (caller-owned dst, one scratch per goroutine).
func (e *Extractor) TransformRecordInto(row []float64, dst hv.Vector, s *hv.Scratch) {
	e.mustFit()
	e.cb.EncodeRecordInto(row, dst, s)
}

// Codebook exposes the fitted codebook for inspection.
func (e *Extractor) Codebook() *encode.Codebook {
	e.mustFit()
	return e.cb
}

func (e *Extractor) mustFit() {
	if e.cb == nil {
		panic("core: extractor used before Fit")
	}
}

// Pipeline is an ml.Classifier that re-fits an Extractor on every Fit and
// feeds the encoded 0/1 matrix to an inner classifier. Use it wherever a
// plain model is used to get the paper's "with hypervectors" variant with
// no evaluation leakage.
type Pipeline struct {
	specs []encode.Spec
	opts  Options
	inner ml.Classifier
	ext   *Extractor
}

var _ ml.Classifier = (*Pipeline)(nil)

// NewPipeline builds a hybrid pipeline: specs describe the raw columns,
// inner is the downstream model.
func NewPipeline(specs []encode.Spec, opts Options, inner ml.Classifier) *Pipeline {
	if inner == nil {
		panic("core: nil inner classifier")
	}
	return &Pipeline{specs: append([]encode.Spec(nil), specs...), opts: opts, inner: inner}
}

// Fit fits the extractor on X, encodes X, and fits the inner model on the
// hypervector representation.
func (p *Pipeline) Fit(X [][]float64, y []int) error {
	if err := ml.ValidateFit(X, y); err != nil {
		return err
	}
	ext := NewExtractor(p.opts)
	if err := ext.Fit(p.specs, X); err != nil {
		return err
	}
	p.ext = ext
	return p.inner.Fit(ext.TransformFloats(X), y)
}

// Predict encodes X with the fitted extractor and delegates.
func (p *Pipeline) Predict(X [][]float64) []int {
	if p.ext == nil {
		panic("core: pipeline predict before fit")
	}
	return p.inner.Predict(p.ext.TransformFloats(X))
}

// HammingLOO runs the paper's pure-HDC experiment on a dataset: fit the
// encoders on the full data (there is no trained model to leak into —
// §II.C), encode every record, and evaluate nearest-neighbour Hamming
// classification with leave-one-out validation.
func HammingLOO(d *dataset.Dataset, opts Options) (metrics.Confusion, error) {
	ext := NewExtractor(opts)
	if err := ext.FitDataset(d); err != nil {
		return metrics.Confusion{}, err
	}
	vs := ext.Transform(d.X)
	return hamming.LeaveOneOut(vs, d.Y), nil
}

// EncodeDataset fits an extractor on the full dataset and returns both the
// hypervectors and their float form. This mirrors the paper's experiment
// construction, where records are encoded once and the encoded dataset is
// handed to the various models; for strictly leakage-free per-fold
// encoding use Pipeline instead. The min/max fitted here describe feature
// ranges only — no label information enters the encoding.
func EncodeDataset(d *dataset.Dataset, opts Options) ([]hv.Vector, [][]float64, error) {
	ext := NewExtractor(opts)
	if err := ext.FitDataset(d); err != nil {
		return nil, nil, err
	}
	vs := ext.Transform(d.X)
	fs := make([][]float64, len(vs))
	for i, v := range vs {
		fs[i] = v.Floats(nil)
	}
	return vs, fs, nil
}
