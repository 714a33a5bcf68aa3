package drift

import (
	"encoding/json"
	"math"
	"sync"
)

// JoinResult classifies one feedback label's fate.
type JoinResult int

const (
	// Matched: the label joined a remembered, not-yet-labeled prediction.
	Matched JoinResult = iota
	// Unknown: no remembered prediction carries this key (never seen, or
	// already rotated out of the bounded ring).
	Unknown
	// Duplicate: the prediction was already labeled; the second label is
	// ignored so confusion counts stay consistent.
	Duplicate
)

// String returns the snake_case result name.
func (r JoinResult) String() string {
	switch r {
	case Matched:
		return "matched"
	case Unknown:
		return "unknown"
	case Duplicate:
		return "duplicate"
	default:
		return "invalid"
	}
}

// Confusion is the online confusion-count block of a quality snapshot.
type Confusion struct {
	TP uint64 `json:"tp"`
	TN uint64 `json:"tn"`
	FP uint64 `json:"fp"`
	FN uint64 `json:"fn"`
}

func (c *Confusion) add(pred, label int) {
	switch {
	case label == 1 && pred == 1:
		c.TP++
	case label == 0 && pred == 0:
		c.TN++
	case label == 0 && pred == 1:
		c.FP++
	default:
		c.FN++
	}
}

func (c Confusion) total() uint64 { return c.TP + c.TN + c.FP + c.FN }

func (c Confusion) accuracy() float64 {
	if c.total() == 0 {
		return math.NaN()
	}
	return float64(c.TP+c.TN) / float64(c.total())
}

func (c Confusion) f1() float64 {
	denom := 2*c.TP + c.FP + c.FN
	if denom == 0 {
		return math.NaN()
	}
	return 2 * float64(c.TP) / float64(denom)
}

// predEntry is one remembered prediction in the bounded join ring. last
// marks a request's last prediction, whose eviction retires the request's
// index entry.
type predEntry struct {
	req     uint64
	pred    uint8
	valid   bool
	labeled bool
	last    bool
}

// reqEntry indexes one request's n predictions: prediction i is number
// first+i of those recorded since start, in ring slot (first+i) mod
// Capacity until it is evicted.
type reqEntry struct {
	first uint64
	n     int
}

// outcome is one labeled prediction in the rolling quality window.
type outcome struct{ pred, label uint8 }

// Quality joins delayed ground-truth labels back to recent predictions
// and maintains online quality statistics. Predictions live in a bounded
// ring, each named by its request's integer key and its index within the
// request: remembering a new prediction once the ring is full evicts the
// oldest, which can no longer be labeled (it reports Unknown). Labeled
// outcomes feed cumulative confusion counts and a rolling window used for
// the canary accuracy. The caller mints the request keys.
//
// The join index is kept per request, not per prediction: one map entry
// per RecordBatch call points at the ring slot of the request's first
// prediction, and prediction i sits i slots on unless it has been
// evicted. A single mutex guards all state. RecordBatch takes it once
// for a request and makes one map insert, plus one delete for each
// request whose last prediction it evicts; label joins are rarer still.
type Quality struct {
	mu       sync.Mutex
	baseline Baseline
	hasBase  bool
	tol      float64
	minCount uint64

	ring  []predEntry
	byReq map[uint64]reqEntry
	next  uint64 // predictions recorded since start

	win     []outcome
	winNext uint64 // labeled outcomes recorded since start

	cum       Confusion
	matched   uint64
	unknown   uint64
	duplicate uint64
}

// QualityConfig tunes a Quality tracker. The zero value gets the
// defaults noted per field.
type QualityConfig struct {
	// Capacity bounds the prediction join ring (default 4096).
	Capacity int
	// Window bounds the rolling labeled-outcome window the canary reads
	// (default 1024).
	Window int
	// Tolerance is how far rolling accuracy may fall below the baseline
	// before the canary degrades (default 0.05).
	Tolerance float64
	// MinLabels is how many windowed labels the canary needs before it
	// judges at all (default 50).
	MinLabels int
}

// NewQuality builds a tracker. baseline may be nil (no canary judgement,
// quality counters still run).
func NewQuality(baseline *Baseline, cfg QualityConfig) *Quality {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 4096
	}
	if cfg.Window <= 0 {
		cfg.Window = 1024
	}
	if cfg.Tolerance <= 0 {
		cfg.Tolerance = 0.05
	}
	if cfg.MinLabels <= 0 {
		cfg.MinLabels = 50
	}
	q := &Quality{
		tol:      cfg.Tolerance,
		minCount: uint64(cfg.MinLabels),
		ring:     make([]predEntry, cfg.Capacity),
		byReq:    make(map[uint64]reqEntry),
		win:      make([]outcome, cfg.Window),
	}
	if baseline != nil {
		q.baseline = *baseline
		q.hasBase = true
	}
	return q
}

// RecordBatch remembers preds as the predictions of request req, in
// order, under one lock: prediction i takes the next ring slot, evicting
// the oldest. Re-recording a request replaces it: the newer predictions
// win the join, and the older ones still in the ring are neither
// joinable nor pending. Recording no predictions does nothing.
func (q *Quality) RecordBatch(req uint64, preds []int) {
	if len(preds) == 0 {
		return
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	size := uint64(len(q.ring))
	if old, ok := q.byReq[req]; ok {
		for seq := max(old.first, q.oldest()); seq < old.first+uint64(old.n); seq++ {
			q.ring[seq%size].valid = false
		}
	}
	q.byReq[req] = reqEntry{first: q.next, n: len(preds)}
	for _, pred := range preds {
		e := &q.ring[q.next%size]
		if e.valid && e.last {
			delete(q.byReq, e.req)
		}
		*e = predEntry{req: req, valid: true}
		if pred != 0 {
			e.pred = 1
		}
		q.next++
	}
	q.ring[(q.next-1)%size].last = true
}

// oldest is the number of the oldest prediction still in the ring.
func (q *Quality) oldest() uint64 {
	if q.next < uint64(len(q.ring)) {
		return 0
	}
	return q.next - uint64(len(q.ring))
}

// Feedback joins one ground-truth label (0 or 1) to prediction i of
// request req and folds the outcome into the quality statistics. An
// index outside the request's predictions reports Unknown. Labels
// outside {0, 1} must be rejected by the caller; Feedback normalizes any
// non-zero label to 1 defensively.
func (q *Quality) Feedback(req uint64, i int, label int) JoinResult {
	l := uint8(0)
	if label != 0 {
		l = 1
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	r, ok := q.byReq[req]
	seq := r.first + uint64(i)
	if !ok || i < 0 || i >= r.n || seq < q.oldest() {
		q.unknown++
		return Unknown
	}
	e := &q.ring[seq%uint64(len(q.ring))]
	if e.labeled {
		q.duplicate++
		return Duplicate
	}
	e.labeled = true
	q.matched++
	q.cum.add(int(e.pred), int(l))
	q.win[q.winNext%uint64(len(q.win))] = outcome{pred: e.pred, label: l}
	q.winNext++
	return Matched
}

// CanaryStatus is the delayed-label canary verdict.
type CanaryStatus string

const (
	// CanaryDisabled: the deployment carries no baseline to compare to.
	CanaryDisabled CanaryStatus = "disabled"
	// CanaryPending: too few labels in the window to judge.
	CanaryPending CanaryStatus = "pending"
	// CanaryHealthy: rolling accuracy within tolerance of the baseline.
	CanaryHealthy CanaryStatus = "healthy"
	// CanaryDegraded: rolling accuracy fell below baseline - tolerance.
	CanaryDegraded CanaryStatus = "degraded"
)

// QualityStats is a point-in-time quality summary.
type QualityStats struct {
	BaselineAccuracy float64      `json:"baseline_accuracy"`
	Tolerance        float64      `json:"tolerance"`
	Matched          uint64       `json:"matched"`
	Unknown          uint64       `json:"unknown"`
	Duplicate        uint64       `json:"duplicate"`
	Pending          uint64       `json:"pending"` // remembered predictions not yet labeled
	Cumulative       Confusion    `json:"cumulative"`
	Accuracy         float64      `json:"accuracy"` // cumulative
	F1               float64      `json:"f1"`       // cumulative
	WindowSize       int          `json:"window_size"`
	WindowLabels     uint64       `json:"window_labels"`
	RollingAccuracy  float64      `json:"rolling_accuracy"`
	RollingF1        float64      `json:"rolling_f1"`
	Canary           CanaryStatus `json:"canary"`
}

// nanPtr returns nil for NaN so the field marshals as JSON null
// (encoding/json rejects NaN outright).
func nanPtr(f float64) *float64 {
	if math.IsNaN(f) {
		return nil
	}
	return &f
}

// MarshalJSON renders NaN metrics ("no labels yet") as null — the
// stats otherwise could not be marshalled at all.
func (s QualityStats) MarshalJSON() ([]byte, error) {
	type alias QualityStats
	return json.Marshal(struct {
		alias
		BaselineAccuracy *float64 `json:"baseline_accuracy"`
		Accuracy         *float64 `json:"accuracy"`
		F1               *float64 `json:"f1"`
		RollingAccuracy  *float64 `json:"rolling_accuracy"`
		RollingF1        *float64 `json:"rolling_f1"`
	}{
		alias:            alias(s),
		BaselineAccuracy: nanPtr(s.BaselineAccuracy),
		Accuracy:         nanPtr(s.Accuracy),
		F1:               nanPtr(s.F1),
		RollingAccuracy:  nanPtr(s.RollingAccuracy),
		RollingF1:        nanPtr(s.RollingF1),
	})
}

// Snapshot summarizes the tracker. NaN metrics mean "no labels yet".
func (q *Quality) Snapshot() QualityStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	st := QualityStats{
		Tolerance:  q.tol,
		Matched:    q.matched,
		Unknown:    q.unknown,
		Duplicate:  q.duplicate,
		Cumulative: q.cum,
		Accuracy:   q.cum.accuracy(),
		F1:         q.cum.f1(),
		WindowSize: len(q.win),
		Canary:     CanaryDisabled,
	}
	if q.hasBase {
		st.BaselineAccuracy = q.baseline.LOOCVAccuracy
	} else {
		st.BaselineAccuracy = math.NaN()
	}
	for _, e := range q.ring {
		if e.valid && !e.labeled {
			st.Pending++
		}
	}

	n := q.winNext
	if n > uint64(len(q.win)) {
		n = uint64(len(q.win))
	}
	st.WindowLabels = n
	var roll Confusion
	for i := uint64(0); i < n; i++ {
		roll.add(int(q.win[i].pred), int(q.win[i].label))
	}
	st.RollingAccuracy = roll.accuracy()
	st.RollingF1 = roll.f1()

	if q.hasBase {
		switch {
		case n < q.minCount:
			st.Canary = CanaryPending
		case st.RollingAccuracy >= q.baseline.LOOCVAccuracy-q.tol:
			st.Canary = CanaryHealthy
		default:
			st.Canary = CanaryDegraded
		}
	}
	return st
}
