package serve

import (
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"hdfe/internal/drift"
	"hdfe/internal/obs"
)

// driftState bundles one model's data/quality observability: the input
// drift monitor (live per-feature histograms against that model's
// training reference), the rolling score window for prediction drift,
// and the delayed-label quality tracker. It lives on the model and swaps
// atomically with it — drift signals always describe traffic as seen by
// one specific model version, never a blend across a hot-swap. The
// monitor is nil when the model carries no reference (a pre-v2
// artifact) — input drift reporting is then disabled while prediction
// drift and quality still run, since neither needs training-time state
// beyond the baseline.
type driftState struct {
	monitor *drift.Monitor
	scores  *drift.ScoreWindow
	quality *drift.Quality

	modelVersion uint64
	logger       *slog.Logger

	mu      sync.Mutex
	alerted map[string]bool // per-signal warning latches (edge-triggered logs)
}

// The drift warning thresholds, reported by /debug/drift.
const (
	// psiWarn is the per-feature PSI at which input drift is logged: 0.25
	// is the conventional "significant shift" threshold.
	psiWarn = 0.25
	// clampWarn is the per-feature out-of-range ratio at which clamping
	// is logged.
	clampWarn = 0.01
)

// newDriftState builds one model's drift state. The score window and
// the quality tracker run at their drift-package defaults: 4096 scores,
// a 4096-prediction feedback ring, a 1024-label window and a 0.05
// accuracy tolerance.
func newDriftState(ref *drift.Reference, modelVersion uint64, logger *slog.Logger) *driftState {
	d := &driftState{
		scores:       drift.NewScoreWindow(0),
		modelVersion: modelVersion,
		logger:       logger,
		alerted:      make(map[string]bool),
	}
	var base *drift.Baseline
	if ref != nil {
		d.monitor = drift.NewMonitor(ref)
		base = &ref.Baseline
	}
	d.quality = drift.NewQuality(base, drift.QualityConfig{})
	return d
}

// observeRows folds a request's validated rows into the input
// histograms.
func (d *driftState) observeRows(rows [][]float64) {
	if d.monitor != nil {
		d.monitor.ObserveRows(rows)
	}
}

// driftReport is the /debug/drift body. Model identity is filled by the
// handler; every signal below it belongs to that model version.
type driftReport struct {
	Model        string `json:"model"`
	ModelVersion uint64 `json:"model_version"`
	// InputDriftEnabled is false when the model predates the drift
	// reference (Ref nil): Features stays empty and no PSI is computed.
	InputDriftEnabled bool                  `json:"input_drift_enabled"`
	RowsObserved      uint64                `json:"rows_observed"`
	PSIWarn           float64               `json:"psi_warn_threshold"`
	ClampWarn         float64               `json:"clamp_warn_threshold"`
	Features          []drift.FeatureDrift  `json:"features,omitempty"`
	Prediction        drift.PredictionStats `json:"prediction"`
	Quality           drift.QualityStats    `json:"quality"`
	Shadow            *shadowDebug          `json:"shadow,omitempty"`
}

// report snapshots every drift signal and runs the warning evaluation:
// crossing a threshold logs once, and the latch re-arms when the signal
// recovers, so a persistently drifted feature does not flood the log on
// every scrape.
func (d *driftState) report() driftReport {
	rep := driftReport{
		ModelVersion: d.modelVersion,
		PSIWarn:      psiWarn,
		ClampWarn:    clampWarn,
		Prediction:   d.scores.Snapshot(),
		Quality:      d.quality.Snapshot(),
	}
	if d.monitor != nil {
		rep.InputDriftEnabled = true
		rep.RowsObserved = d.monitor.Rows()
		rep.Features = d.monitor.Snapshot()
	}
	d.evaluate(rep)
	return rep
}

// evaluate fires edge-triggered slog warnings for signals over their
// thresholds.
func (d *driftState) evaluate(rep driftReport) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, f := range rep.Features {
		if f.Observed == 0 {
			continue
		}
		d.edge("psi:"+f.Name, f.PSI >= psiWarn, func() {
			d.logger.Warn("input drift detected",
				"feature", f.Name, "psi", f.PSI, "threshold", psiWarn,
				"model_version", d.modelVersion)
		})
		d.edge("clamp:"+f.Name, f.ClampRatio >= clampWarn, func() {
			d.logger.Warn("out-of-range clamping elevated",
				"feature", f.Name, "clamp_ratio", f.ClampRatio, "threshold", clampWarn,
				"below", f.Below, "above", f.Above,
				"model_version", d.modelVersion)
		})
	}
	d.edge("canary", rep.Quality.Canary == drift.CanaryDegraded, func() {
		d.logger.Warn("model quality degraded",
			"rolling_accuracy", rep.Quality.RollingAccuracy,
			"baseline_accuracy", rep.Quality.BaselineAccuracy,
			"tolerance", rep.Quality.Tolerance,
			"model_version", d.modelVersion)
	})
}

// edge runs fire on a false→true transition of cond for key and re-arms
// on true→false. Callers hold d.mu.
func (d *driftState) edge(key string, cond bool, fire func()) {
	if cond && !d.alerted[key] {
		d.alerted[key] = true
		fire()
	} else if !cond {
		d.alerted[key] = false
	}
}

// feedbackItem is one delayed ground-truth label keyed by the request ID
// the scoring response carried.
type feedbackItem struct {
	RequestID string `json:"request_id"`
	Label     *int   `json:"label"`
}

// feedbackRequest is the body of POST /v1/feedback: either one label
// inline or a batch under "items".
type feedbackRequest struct {
	RequestID string         `json:"request_id,omitempty"`
	Label     *int           `json:"label,omitempty"`
	Items     []feedbackItem `json:"items,omitempty"`
}

// feedbackResult reports one label's join outcome.
type feedbackResult struct {
	RequestID string `json:"request_id"`
	Status    string `json:"status"` // matched | unknown | duplicate
}

// feedbackResponse is the body of a successful POST /v1/feedback.
type feedbackResponse struct {
	Results   []feedbackResult `json:"results"`
	Matched   int              `json:"matched"`
	Unknown   int              `json:"unknown"`
	Duplicate int              `json:"duplicate"`
}

// handleFeedback joins delayed ground-truth labels to remembered
// predictions. Unknown IDs are reported, not rejected: labels routinely
// arrive after the bounded join ring has rotated — or, under
// hot-swapping, after the model that made the prediction was replaced
// (labels join the active model's quality tracker; a replaced model's
// request IDs report unknown).
func (s *Server) handleFeedback(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	var req feedbackRequest
	if !s.decode(w, r, nil, &req) {
		return
	}
	items := req.Items
	if req.RequestID != "" || req.Label != nil {
		if len(items) > 0 {
			s.writeError(w, nil, http.StatusBadRequest,
				"send either an inline request_id/label or items, not both", nil, 0)
			return
		}
		items = []feedbackItem{{RequestID: req.RequestID, Label: req.Label}}
	}
	if len(items) == 0 {
		s.writeError(w, nil, http.StatusBadRequest, "no feedback items", nil, 0)
		return
	}
	for i, it := range items {
		if it.RequestID == "" {
			s.writeError(w, nil, http.StatusBadRequest,
				fmt.Sprintf("item %d: missing request_id", i), nil, i)
			return
		}
		if it.Label == nil || (*it.Label != 0 && *it.Label != 1) {
			s.writeError(w, nil, http.StatusBadRequest,
				fmt.Sprintf("item %d: label must be 0 or 1", i), nil, i)
			return
		}
	}
	quality := s.active.Load().drift.quality
	resp := feedbackResponse{Results: make([]feedbackResult, len(items))}
	for i, it := range items {
		key, index := requestKey(it.RequestID)
		res := quality.Feedback(key, index, *it.Label)
		resp.Results[i] = feedbackResult{RequestID: it.RequestID, Status: res.String()}
		s.auditFeedback(it.RequestID, *it.Label, res.String())
		switch res {
		case drift.Matched:
			resp.Matched++
		case drift.Unknown:
			resp.Unknown++
		case drift.Duplicate:
			resp.Duplicate++
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleDriftDebug serves the active model's full drift report (and, as
// a side effect, runs the threshold evaluation exactly like a metrics
// scrape does), plus the shadow comparison when a shadow is installed.
func (s *Server) handleDriftDebug(w http.ResponseWriter, r *http.Request) {
	m := s.active.Load()
	rep := m.drift.report()
	rep.Model = m.info.Name
	if sh := s.shadow.slot.Load(); sh != nil {
		rep.Shadow = &shadowDebug{
			Model:          sh.info.Name,
			ModelVersion:   sh.info.Version,
			shadowSnapshot: sh.shadow.snapshot(),
		}
	}
	writeJSON(w, http.StatusOK, rep)
}

// promDrift emits the drift/quality metric families into a /metrics
// scrape, every series labelled with the active model's version.
// Input-drift families appear only when the model carries a reference;
// quality and prediction families always do. When a shadow model is
// installed, the hdfe_shadow_* canary families follow, labelled with
// the shadow's version.
func (s *Server) promDrift(p *obs.PromWriter) {
	m := s.active.Load()
	ver := versionLabel(m.info.Version)
	rep := m.drift.report()
	if rep.InputDriftEnabled {
		p.Header("hdfe_drift_rows_observed_total", "counter", "Rows folded into the input drift histograms.")
		p.Value("hdfe_drift_rows_observed_total", float64(rep.RowsObserved), "model_version", ver)
		p.Header("hdfe_drift_psi", "gauge", "Per-feature population stability index vs the training reference.")
		for _, f := range rep.Features {
			p.Value("hdfe_drift_psi", f.PSI, "feature", f.Name, "model_version", ver)
		}
		p.Header("hdfe_drift_clamp_ratio", "gauge", "Fraction of observed values outside the fitted range (clamped by the level encoder).")
		for _, f := range rep.Features {
			p.Value("hdfe_drift_clamp_ratio", f.ClampRatio, "feature", f.Name, "model_version", ver)
		}
		p.Header("hdfe_drift_out_of_range_total", "counter", "Observed values outside the fitted range, by side.")
		for _, f := range rep.Features {
			p.Value("hdfe_drift_out_of_range_total", float64(f.Below), "feature", f.Name, "side", "below", "model_version", ver)
			p.Value("hdfe_drift_out_of_range_total", float64(f.Above), "feature", f.Name, "side", "above", "model_version", ver)
		}
		p.Header("hdfe_drift_missing_total", "counter", "Missing (null) values observed per feature.")
		for _, f := range rep.Features {
			p.Value("hdfe_drift_missing_total", float64(f.Missing), "feature", f.Name, "model_version", ver)
		}
	}

	p.Header("hdfe_drift_prediction_positive_ratio", "gauge", "Fraction of windowed scores predicting the positive class.")
	p.Value("hdfe_drift_prediction_positive_ratio", rep.Prediction.PositiveRatio, "model_version", ver)
	p.Header("hdfe_drift_score_margin_mean", "gauge", "Mean decision margin |score-0.5|*2 over the score window.")
	p.Value("hdfe_drift_score_margin_mean", rep.Prediction.MeanMargin, "model_version", ver)

	q := rep.Quality
	p.Header("hdfe_quality_labels_total", "counter", "Ground-truth labels joined to predictions.")
	p.Value("hdfe_quality_labels_total", float64(q.Matched), "model_version", ver)
	p.Header("hdfe_feedback_unmatched_total", "counter", "Feedback labels whose request ID matched no remembered prediction.")
	p.Value("hdfe_feedback_unmatched_total", float64(q.Unknown), "model_version", ver)
	p.Header("hdfe_quality_baseline_accuracy", "gauge", "Training-time LOOCV accuracy baseline (NaN if the model carries none).")
	p.Value("hdfe_quality_baseline_accuracy", q.BaselineAccuracy, "model_version", ver)
	p.Header("hdfe_quality_accuracy", "gauge", "Cumulative labeled accuracy (NaN before the first label).")
	p.Value("hdfe_quality_accuracy", q.Accuracy, "model_version", ver)
	p.Header("hdfe_quality_f1", "gauge", "Cumulative labeled F1 (NaN before the first positive).")
	p.Value("hdfe_quality_f1", q.F1, "model_version", ver)
	p.Header("hdfe_quality_canary_healthy", "gauge", "1 while the delayed-label canary is healthy or pending, 0 once degraded.")
	healthy := 1.0
	if q.Canary == drift.CanaryDegraded {
		healthy = 0
	}
	p.Value("hdfe_quality_canary_healthy", healthy, "model_version", ver)

	if sh := s.shadow.slot.Load(); sh != nil {
		shVer := versionLabel(sh.info.Version)
		snap := sh.shadow.snapshot()
		p.Header("hdfe_shadow_records_total", "counter", "Records re-scored by the shadow model.")
		p.Value("hdfe_shadow_records_total", float64(snap.Records), "model_version", shVer)
		p.Header("hdfe_shadow_disagreements_total", "counter", "Shadow predictions that flipped the active model's decision at 0.5.")
		p.Value("hdfe_shadow_disagreements_total", float64(snap.Disagreements), "model_version", shVer)
		p.Header("hdfe_shadow_disagreement_rate", "gauge", "Fraction of shadow-scored records whose prediction disagreed with the active model.")
		p.Value("hdfe_shadow_disagreement_rate", snap.DisagreementRate, "model_version", shVer)
		p.Header("hdfe_shadow_score_delta_mean_abs", "gauge", "Mean |active score - shadow score| over shadow-scored records.")
		p.Value("hdfe_shadow_score_delta_mean_abs", snap.MeanAbsDelta, "model_version", shVer)
		p.Header("hdfe_shadow_dropped_batches_total", "counter", "Batches dropped by the lossy shadow queue under overload.")
		p.Value("hdfe_shadow_dropped_batches_total", float64(s.shadow.q.Dropped()))
	}
}

// versionLabel renders a model version as its metric label value.
func versionLabel(v uint64) string { return strconv.FormatUint(v, 10) }

// requestID renders the trace ID as the response's request_id.
func requestID(id uint64) string { return strconv.FormatUint(id, 10) }

// batchRequestID renders one record's request_id within a batch.
func batchRequestID(id uint64, index int) string {
	return strconv.FormatUint(id, 10) + "-" + strconv.Itoa(index)
}

// qualityKey is the drift.Quality request key of scoring request seq:
// 2·seq on /v1/score, 2·seq+1 on /v1/score/batch, whose record i is the
// request's prediction i. So "<seq>" and "<seq>-0" never name one
// prediction.
func qualityKey(seq uint64, batch bool) uint64 {
	if batch {
		return seq<<1 | 1
	}
	return seq << 1
}

// requestKey returns the quality request key and prediction index of a
// request_id written the way the scoring routes write it: "<seq>" or
// "<seq>-<i>", in decimal with no sign and no leading zero, i below
// maxBatchRecords. Any other string gets index -1, which joins nothing,
// so its label counts as unknown.
func requestKey(id string) (key uint64, index int) {
	seqText, indexText, batch := strings.Cut(id, "-")
	seq, ok := canonicalUint(seqText)
	if !ok || seq >= 1<<63 {
		return 0, -1
	}
	if !batch {
		return qualityKey(seq, false), 0
	}
	i, ok := canonicalUint(indexText)
	if !ok || i >= maxBatchRecords {
		return 0, -1
	}
	return qualityKey(seq, true), int(i)
}

// canonicalUint parses s as strconv.FormatUint writes a uint64.
func canonicalUint(s string) (uint64, bool) {
	if s == "" || s[0] == '0' && len(s) > 1 {
		return 0, false
	}
	v, err := strconv.ParseUint(s, 10, 64)
	return v, err == nil
}
