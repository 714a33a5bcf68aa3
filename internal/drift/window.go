package drift

import (
	"math"
	"sync/atomic"
)

// scoreBins is the fixed histogram resolution for the score window
// snapshot: ten buckets over [0, 1], matching the reference binning.
const scoreBins = 10

// ScoreWindow is a lock-free rolling window of emitted risk scores for
// prediction-drift monitoring. A writer claims the slots of a request's
// scores with one atomic add and stores each score's bits with one
// atomic store; the window holds the last len(slots) scores. Under heavy
// concurrency a snapshot may read a slot mid-rotation (seeing the score
// it is about to replace), which is harmless for a monitoring
// distribution and keeps the hot path free of locks.
type ScoreWindow struct {
	slots []atomic.Uint64 // math.Float64bits of each score
	next  atomic.Uint64   // total observations ever
}

// NewScoreWindow returns a window over the last n scores (n <= 0
// defaults to 4096).
func NewScoreWindow(n int) *ScoreWindow {
	if n <= 0 {
		n = 4096
	}
	return &ScoreWindow{slots: make([]atomic.Uint64, n)}
}

// Observe records emitted scores in order, claiming their slots with
// one atomic add.
func (w *ScoreWindow) Observe(scores ...float64) {
	n := uint64(len(w.slots))
	i := (w.next.Add(uint64(len(scores))) - uint64(len(scores))) % n
	for _, s := range scores {
		w.slots[i].Store(math.Float64bits(s))
		if i++; i == n {
			i = 0
		}
	}
}

// PredictionStats summarizes the rolling score window.
type PredictionStats struct {
	Window int    `json:"window"`
	Count  int    `json:"count"` // scores currently in the window
	Total  uint64 `json:"total"` // scores observed since start
	// PositiveRatio is the fraction of windowed scores >= 0.5 — the live
	// predicted-class rate to compare against the training PosRate.
	PositiveRatio float64 `json:"positive_ratio"`
	// MeanMargin is the mean decision margin |score - 0.5| * 2 in
	// [0, 1]: 1 means confident scores, 0 means everything rides the
	// decision boundary. A falling margin is an early degradation signal
	// that needs no labels.
	MeanMargin float64 `json:"mean_margin"`
	// Histogram counts windowed scores in ten uniform buckets over
	// [0, 1].
	Histogram []uint64 `json:"histogram"`
}

// Snapshot summarizes the current window contents.
func (w *ScoreWindow) Snapshot() PredictionStats {
	total := w.next.Load()
	n := int(total)
	if n > len(w.slots) {
		n = len(w.slots)
	}
	st := PredictionStats{Window: len(w.slots), Count: n, Total: total, Histogram: make([]uint64, scoreBins)}
	if n == 0 {
		return st
	}
	var pos int
	var marginSum float64
	for i := 0; i < n; i++ {
		s := math.Float64frombits(w.slots[i].Load())
		if s >= 0.5 {
			pos++
		}
		marginSum += math.Abs(s-0.5) * 2
		// Scores are ClassAffinity values in [0, 1]; clamp anyway so a
		// rogue value can never turn a monitoring scrape into a panic.
		b := bucketOf(s, 0, 1, scoreBins)
		if b < 0 || math.IsNaN(s) {
			b = 0
		} else if b >= scoreBins {
			b = scoreBins - 1
		}
		st.Histogram[b]++
	}
	st.PositiveRatio = float64(pos) / float64(n)
	st.MeanMargin = marginSum / float64(n)
	return st
}
