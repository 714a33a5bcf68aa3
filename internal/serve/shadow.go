package serve

import (
	"context"
	"math"
	"sync/atomic"
	"time"

	"hdfe/internal/chaos"
	"hdfe/internal/obs"
	"hdfe/internal/obs/export"
)

// shadowStats accumulates the canary comparison for one shadow model:
// how often it disagrees with the active model's prediction and how far
// its scores sit from the active scores. It lives on the shadow model,
// so loading a new shadow starts the comparison fresh.
type shadowStats struct {
	records       atomic.Uint64
	disagreements atomic.Uint64
	// deltaNanos sums |activeScore - shadowScore| in 1e-9 fixed point
	// (scores live in [0, 1], so the sum overflows only after ~1.8e10
	// records).
	deltaNanos atomic.Uint64
}

// observe folds one record's active/shadow score pair in. Disagreement
// is a prediction flip at the 0.5 decision threshold.
func (st *shadowStats) observe(active, shadow float64) {
	st.records.Add(1)
	if (active >= 0.5) != (shadow >= 0.5) {
		st.disagreements.Add(1)
	}
	st.deltaNanos.Add(uint64(math.Round(math.Abs(active-shadow) * 1e9)))
}

// shadowSnapshot is a point-in-time copy of the comparison, the shape
// /metrics and /debug/drift report.
type shadowSnapshot struct {
	Records          uint64  `json:"records"`
	Disagreements    uint64  `json:"disagreements"`
	DisagreementRate float64 `json:"disagreement_rate"`
	MeanAbsDelta     float64 `json:"mean_abs_score_delta"`
}

func (st *shadowStats) snapshot() shadowSnapshot {
	s := shadowSnapshot{
		Records:       st.records.Load(),
		Disagreements: st.disagreements.Load(),
	}
	if s.Records > 0 {
		s.DisagreementRate = float64(s.Disagreements) / float64(s.Records)
		s.MeanAbsDelta = float64(st.deltaNanos.Load()) / 1e9 / float64(s.Records)
	}
	return s
}

// shadowDebug is the shadow block inside /debug/drift.
type shadowDebug struct {
	Model        string `json:"model"`
	ModelVersion uint64 `json:"model_version"`
	shadowSnapshot
}

// shadowBatch is one scored request queued for shadow comparison: a
// deep copy of its validated rows plus the active model's scores for
// them. enq is the submission time — the worker discards batches older
// than the per-request budget instead of burning encode time on
// comparisons nobody is waiting for.
type shadowBatch struct {
	rows   [][]float64
	active []float64
	tc     obs.TraceContext // the request's trace identity (may be zero)
	enq    time.Time
}

// shadowScorer re-scores validated batches against the shadow model off
// the hot path: scoring paths submit a copy of each batch and move on,
// and a single worker goroutine drains the queue. The queue is an
// obs.Handoff, bounded and lossy — under overload, shadow comparison
// drops batches (counted in q.Dropped) rather than applying
// backpressure to live traffic.
type shadowScorer struct {
	// slot is the published shadow model: nil until the first shadow is
	// installed, never cleared after, so a queued batch always finds one.
	// Each batch loads it once; replacing it starts a fresh comparison.
	slot     atomic.Pointer[model]
	maxAge   time.Duration    // deadline for queued batches; <= 0 keeps all
	chaos    *chaos.Injector  // nil in production
	exporter *export.Exporter // nil without an OTLP endpoint
	q        *obs.Handoff[shadowBatch]
}

// newShadowScorer starts the shadow worker over a queue of queueLen
// batches. maxAge is the deadline a queued batch must be scored within
// (normally the server's RequestTimeout) — a slow shadow model sheds
// stale comparisons instead of falling ever further behind. inj and exp
// may be nil; with an exporter, every prediction flip emits an
// always-exported shadow_disagreement span joined to the request's
// trace.
func newShadowScorer(queueLen int, maxAge time.Duration, inj *chaos.Injector, exp *export.Exporter) *shadowScorer {
	sh := &shadowScorer{maxAge: maxAge, chaos: inj, exporter: exp}
	sh.q = obs.NewHandoff(queueLen, sh.loop)
	return sh
}

// submit offers one request's scored rows for shadow comparison. It
// deep-copies rows and scores before returning, so callers may recycle
// their buffers immediately; when no shadow is configured it is a cheap
// atomic load and an early return. A zero tc just skips disagreement
// spans.
func (sh *shadowScorer) submit(rows [][]float64, active []float64, tc obs.TraceContext) {
	if sh.slot.Load() == nil {
		return
	}
	cp := shadowBatch{
		rows:   make([][]float64, len(rows)),
		active: append([]float64(nil), active...),
		tc:     tc,
		enq:    time.Now(),
	}
	for i, row := range rows {
		cp.rows[i] = append([]float64(nil), row...)
	}
	sh.q.Offer(cp)
}

// loop is the shadow worker: it loads whatever shadow model is
// published per batch, scores the copied rows, and folds the comparison
// into that model's stats and score window. The shadow deliberately
// does not feed input-drift histograms — it sees the exact rows the
// active model already observed.
func (sh *shadowScorer) loop(queue <-chan shadowBatch) {
	var dst []float64
	for b := range queue {
		// Fault seam: a stalled canary. The stall lands before the
		// staleness check so a chaotic slow shadow sheds exactly like a
		// genuinely slow one: the queue backs up, submit drops batches,
		// and the hot path never notices.
		_ = sh.chaos.Inject(chaos.PointShadow)
		if sh.maxAge > 0 && time.Since(b.enq) > sh.maxAge {
			sh.q.Drop(1)
			continue // deadline shed: nobody is waiting for this comparison
		}
		m := sh.slot.Load()
		// On this goroutine, like the scoring routes: a burst of
		// comparisons never takes every CPU away from the handlers.
		dst = m.dep.ScoreBatchIntoObserved(b.rows, dst, nil)
		now := time.Now()
		m.drift.scores.Observe(dst...)
		for i, sc := range dst {
			m.shadow.observe(b.active[i], sc)
			// A prediction flip is exactly what tail sampling exists to
			// keep, but the keep/drop decision happened when the request
			// finished — before this comparison ran. So disagreements are
			// exported unconditionally as their own span, joined to the
			// original trace by the identity threaded through the batch.
			if (b.active[i] >= 0.5) != (sc >= 0.5) && b.tc.Valid() {
				sh.exporter.Enqueue(export.DisagreementSpan(
					b.tc, i, m.info.Version, b.active[i], sc, now))
			}
		}
	}
}

// close stops the worker after it drains the queue; a batch submitted
// after close is counted as dropped. Safe to call more than once.
func (sh *shadowScorer) close() { sh.q.Close(context.Background()) }
