package drift

import (
	"math"
	"sync"
	"sync/atomic"
)

// Monitor mirrors a Reference over live traffic: one lock-free atomic
// histogram per feature plus below-range, above-range, and missing
// counters. A request's rows cost at most one atomic add per touched
// counter — cheap enough for the scoring hot path — and snapshots compute
// PSI and clamp rates on demand, so scrape cost never taxes scoring.
type Monitor struct {
	ref   *Reference
	cells []atomic.Uint64 // per feature: Bins buckets, then below, above and missing
	rows  atomic.Uint64
	local sync.Pool // *[]uint64 shaped like cells: one call's counts
}

// The counters after each feature's buckets, as offsets past the last
// bucket.
const (
	cellBelow = iota
	cellAbove
	cellMissing
	extraCells
)

// NewMonitor builds a live monitor over the deployment's reference.
func NewMonitor(ref *Reference) *Monitor {
	n := len(ref.Features) * (ref.Bins + extraCells)
	m := &Monitor{ref: ref, cells: make([]atomic.Uint64, n)}
	m.local.New = func() any {
		c := make([]uint64, n)
		return &c
	}
	return m
}

// ObserveRows folds a request's validated rows into the live histograms:
// it counts them into a private copy of the counters first, then adds
// each touched counter into the shared ones once. NaN cells (missing
// values passing through under the encode contract) count as missing,
// not as a position. Rows shorter than the schema are ignored beyond
// their length (they cannot reach scoring anyway).
func (m *Monitor) ObserveRows(rows [][]float64) {
	lp := m.local.Get().(*[]uint64)
	local := *lp
	stride := m.ref.Bins + extraCells
	for _, row := range rows {
		for j, v := range row[:min(len(row), len(m.ref.Features))] {
			local[j*stride+m.cell(j, v)]++
		}
	}
	for i, c := range local {
		if c != 0 {
			m.cells[i].Add(c)
			local[i] = 0
		}
	}
	m.local.Put(lp)
	m.rows.Add(uint64(len(rows)))
}

// cell returns the offset of value v's counter among feature j's.
func (m *Monitor) cell(j int, v float64) int {
	bins := m.ref.Bins
	if math.IsNaN(v) {
		return bins + cellMissing
	}
	ref := &m.ref.Features[j]
	switch b := bucketOf(v, ref.Min, ref.Max, bins); {
	case b < 0:
		return bins + cellBelow
	case b >= bins:
		return bins + cellAbove
	default:
		return b
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
	out := make([]FeatureDrift, len(m.ref.Features))
	bins := m.ref.Bins
	for j := range out {
		f := m.cells[j*(bins+extraCells) : (j+1)*(bins+extraCells)]
		ref := &m.ref.Features[j]
		expected := make([]uint64, bins+2)
		actual := make([]uint64, bins+2)
		copy(expected[1:], ref.Counts)
		actual[0] = f[bins+cellBelow].Load()
		actual[bins+1] = f[bins+cellAbove].Load()
		var observed uint64
		for b := 0; b < bins; b++ {
			c := f[b].Load()
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
			Missing:  f[bins+cellMissing].Load(),
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
