package core

import (
	"hdfe/internal/drift"
	"hdfe/internal/encode"
)

// Scorer is the model seam the serving stack depends on: everything a
// scoring endpoint needs from a fitted model, and nothing it does not.
// Deployment is the canonical implementation; the registry and serve
// packages hold Scorers so a hot-swapped model never leaks its concrete
// type into handler code.
//
// Implementations must be safe for concurrent use: the serving stack
// scores from many goroutines (and from the shadow worker) against one
// shared Scorer.
type Scorer interface {
	// Score encodes one record and returns its risk score in [0, 1].
	Score(row []float64) float64
	// ScoreBatchInto scores many records into dst (allocated if nil/short).
	ScoreBatchInto(rows [][]float64, dst []float64) []float64
	// ScoreBatchIntoObserved is ScoreBatchInto reporting per-record
	// encode/distance time to o (nil o is allowed).
	ScoreBatchIntoObserved(rows [][]float64, dst []float64, o StageObserver) []float64
	// Dim is the hypervector dimensionality the model was fitted at.
	Dim() int
	// Specs is the fitted feature schema, in column order. Two models are
	// hot-swappable only if their Specs match exactly.
	Specs() []encode.Spec
	// Codebook exposes the fitted per-feature encoders — the validation
	// schema (ranges, kinds, names) the serving layer checks requests
	// against.
	Codebook() *encode.Codebook
	// DriftRef is the training-time drift reference, or nil when the
	// model carries none (input-drift monitoring is then disabled).
	DriftRef() *drift.Reference
	// Explain decomposes one record into per-feature codeword
	// similarities (ExplainRecord), sorted most-aligned first. It is an
	// on-demand path: callers pay its cost only for requests that ask.
	Explain(row []float64) []FeatureContribution
}

var _ Scorer = (*Deployment)(nil)

// Dim returns the fitted hypervector dimensionality.
func (d *Deployment) Dim() int { return d.Extractor.Dim() }

// Specs returns the fitted feature schema, in column order.
func (d *Deployment) Specs() []encode.Spec { return d.Extractor.Codebook().Specs() }

// Codebook returns the fitted codebook.
func (d *Deployment) Codebook() *encode.Codebook { return d.Extractor.Codebook() }

// DriftRef returns the training-time drift reference (nil for pre-v2
// artifacts).
func (d *Deployment) DriftRef() *drift.Reference { return d.Ref }

// Explain returns the per-feature contributions for one record.
func (d *Deployment) Explain(row []float64) []FeatureContribution {
	return d.Extractor.ExplainRecord(row)
}
