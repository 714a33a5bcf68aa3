package drift

import (
	"math"
	"sync/atomic"
)

// Monitor mirrors a Reference over live traffic: one lock-free atomic
// histogram per feature plus below-range, above-range, and missing
// counters. Observation is a handful of atomic adds per feature — cheap
// enough for the scoring hot path — and snapshots compute PSI and clamp
// rates on demand, so scrape cost never taxes scoring.
type Monitor struct {
	ref   *Reference
	feats []featureCounters
	rows  atomic.Uint64
}

type featureCounters struct {
	buckets []atomic.Uint64
	below   atomic.Uint64
	above   atomic.Uint64
	missing atomic.Uint64
}

// NewMonitor builds a live monitor over the deployment's reference.
func NewMonitor(ref *Reference) *Monitor {
	m := &Monitor{ref: ref, feats: make([]featureCounters, len(ref.Features))}
	for i := range m.feats {
		m.feats[i].buckets = make([]atomic.Uint64, ref.Bins)
	}
	return m
}

// ObserveRow folds one validated request row into the live histograms.
// NaN cells (missing values passing through under the encode contract)
// count as missing, not as a position. Rows shorter than the schema are
// ignored beyond their length (they cannot reach scoring anyway).
func (m *Monitor) ObserveRow(row []float64) {
	m.rows.Add(1)
	n := len(m.feats)
	if len(row) < n {
		n = len(row)
	}
	for j := 0; j < n; j++ {
		f := &m.feats[j]
		v := row[j]
		if math.IsNaN(v) {
			f.missing.Add(1)
			continue
		}
		ref := &m.ref.Features[j]
		switch b := bucketOf(v, ref.Min, ref.Max, m.ref.Bins); {
		case b < 0:
			f.below.Add(1)
		case b >= m.ref.Bins:
			f.above.Add(1)
		default:
			f.buckets[b].Add(1)
		}
	}
}

// FeatureDrift is one feature's point-in-time drift summary.
type FeatureDrift struct {
	Name string `json:"feature"`
	// PSI compares the live histogram (including the out-of-range
	// overflow cells) against the training reference. >0.25 is the
	// conventional "significant shift" threshold.
	PSI float64 `json:"psi"`
	// ClampRatio is the fraction of observed (non-missing) values
	// outside the fitted [Min, Max] — mass the level encoder clamps to
	// its extreme codewords.
	ClampRatio float64  `json:"clamp_ratio"`
	Min        float64  `json:"min"`
	Max        float64  `json:"max"`
	Below      uint64   `json:"below"`
	Above      uint64   `json:"above"`
	Missing    uint64   `json:"missing"`
	Observed   uint64   `json:"observed"` // non-missing live values
	Counts     []uint64 `json:"counts"`
}

// Rows returns the number of rows observed since start.
func (m *Monitor) Rows() uint64 { return m.rows.Load() }

// Snapshot computes the per-feature drift summary. PSI is evaluated over
// bins+2 aligned cells: the live below/above overflow cells are compared
// against zero-mass reference cells (floored by the PSI epsilon), so
// out-of-range traffic registers as drift even when the in-range shape
// still matches.
func (m *Monitor) Snapshot() []FeatureDrift {
	out := make([]FeatureDrift, len(m.feats))
	for j := range m.feats {
		f := &m.feats[j]
		ref := &m.ref.Features[j]
		bins := m.ref.Bins
		expected := make([]uint64, bins+2)
		actual := make([]uint64, bins+2)
		copy(expected[1:], ref.Counts)
		actual[0] = f.below.Load()
		actual[bins+1] = f.above.Load()
		var observed uint64
		for b := 0; b < bins; b++ {
			c := f.buckets[b].Load()
			actual[b+1] = c
			observed += c
		}
		below, above := actual[0], actual[bins+1]
		observed += below + above
		fd := FeatureDrift{
			Name:     ref.Name,
			PSI:      PSI(expected, actual),
			Min:      ref.Min,
			Max:      ref.Max,
			Below:    below,
			Above:    above,
			Missing:  f.missing.Load(),
			Observed: observed,
			Counts:   actual[1 : bins+1],
		}
		if observed > 0 {
			fd.ClampRatio = float64(below+above) / float64(observed)
		}
		out[j] = fd
	}
	return out
}
