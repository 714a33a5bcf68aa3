package core

import (
	"fmt"
	"sort"

	"hdfe/internal/hv"
)

// FeatureContribution reports how strongly one feature's encoded codeword
// agrees with a record's final hypervector. Because the record vector is
// the bitwise majority of the feature codewords, a feature whose codeword
// sits closer to the record vector had more of its bits win the vote —
// i.e. it is more representative of the record (and of anything the record
// is classified as). Similarity is 1 - Hamming/D: 1.0 means the record is
// that codeword; ~0.5 means the feature was fully voted down.
type FeatureContribution struct {
	Name       string
	Value      float64
	Similarity float64
}

// ExplainRecord returns the per-feature contributions for one record,
// sorted from most to least aligned with the record's hypervector. It is
// the paper's clinical-use story made concrete: the encoding is
// transparent enough to show which measurements dominate a patient's
// representation.
func (e *Extractor) ExplainRecord(row []float64) []FeatureContribution {
	e.mustFit()
	cb := e.cb
	if len(row) < cb.NumFeatures() {
		panic(fmt.Sprintf("core: record has %d values for %d features", len(row), cb.NumFeatures()))
	}
	s := hv.GetScratch(cb.Dim())
	defer hv.PutScratch(s)
	record, fvec := s.Rec(), s.Vec()
	cb.EncodeRecordInto(row, record, s)
	out := make([]FeatureContribution, cb.NumFeatures())
	for j, spec := range cb.Specs() {
		cb.Feature(j).EncodeInto(row[j], fvec)
		out[j] = FeatureContribution{
			Name:       spec.Name,
			Value:      row[j],
			Similarity: hv.Similarity(record, fvec),
		}
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].Similarity > out[b].Similarity })
	return out
}

// ClassAffinity compares a record against bundled class prototypes and
// returns a score in [0, 1]: relative closeness to the positive prototype
// (0.5 = equidistant). This is the "present a score to inform clinicians"
// use the paper sketches in §III.B.
func ClassAffinity(record hv.Vector, negProto, posProto hv.Vector) float64 {
	n, p := hv.HammingPair(record, negProto, posProto)
	dNeg, dPos := float64(n), float64(p)
	if dNeg+dPos == 0 {
		return 0.5
	}
	return dNeg / (dNeg + dPos)
}
