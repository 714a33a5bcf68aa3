package serve

import (
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"hdfe/internal/core"
	"hdfe/internal/obs"
	"hdfe/internal/obs/audit"
)

// parseExplain reads the ?explain=k query parameter of /v1/score: the
// number of top explain contributions to compute and return. Absent or
// 0 means none — the default, which keeps the explain path entirely off
// the request.
func parseExplain(r *http.Request) (int, error) {
	if r.URL.RawQuery == "" {
		return 0, nil // skip Query()'s map allocation on the common path
	}
	q := r.URL.Query().Get("explain")
	if q == "" {
		return 0, nil
	}
	k, err := strconv.Atoi(q)
	if err != nil || k < 0 {
		return 0, fmt.Errorf("invalid explain=%q: want a non-negative integer", q)
	}
	return k, nil
}

// explainTopK converts the top k of core's (already sorted) explain
// contributions to the wire/audit form, mapping a NaN feature value —
// the missing-value sentinel — to null.
func explainTopK(contribs []core.FeatureContribution, k int) []audit.Contribution {
	if k > len(contribs) {
		k = len(contribs)
	}
	out := make([]audit.Contribution, k)
	for i := 0; i < k; i++ {
		c := contribs[i]
		out[i] = audit.Contribution{Feature: c.Name, Similarity: c.Similarity}
		if !math.IsNaN(c.Value) {
			v := c.Value
			out[i].Value = &v
		}
	}
	return out
}

// auditScored emits the canonical wide event for one scored record:
// identity, model attribution, the exact inputs and their digest, the
// score down to its bits, the request trace's stage times, and any
// explain contributions the caller requested. batch is the client's
// batch size on /v1/score/batch, where each record carries an even share
// of the stage times, and 0 on /v1/score, where the field is omitted.
// The nil check keeps a server without an audit log from paying the
// event construction.
func (s *Server) auditScored(at *obs.ActiveTrace, m *model, row []float64, resp scoreResponse, batch int) {
	if s.audit == nil {
		return
	}
	share := func(st obs.Stage) int64 {
		return (at.Stage(st) / time.Duration(max(batch, 1))).Microseconds()
	}
	s.audit.Enqueue(audit.Event{
		Route:        at.Route(),
		Outcome:      audit.OutcomeScored,
		RequestID:    resp.RequestID,
		TraceID:      traceIDOf(at),
		ModelVersion: m.info.Version,
		ModelSHA256:  m.info.SHA256,
		Inputs:       audit.Inputs(row),
		InputsSHA256: audit.InputsDigest(row),
		Score:        resp.Score,
		ScoreBits:    math.Float64bits(resp.Score),
		Prediction:   resp.Prediction,
		Batch:        batch,
		Stages: &audit.Stages{
			ValidateUs: share(obs.StageValidate),
			EncodeUs:   share(obs.StageEncode),
			ScoreUs:    share(obs.StageScore),
		},
		Explain: resp.Explain,
	})
}

// auditOutcome emits a non-scored decision (shed or error) for a traced
// scoring request. Untraced callers (nil at) are audited elsewhere.
func (s *Server) auditOutcome(at *obs.ActiveTrace, o audit.Outcome, reason string) {
	if s.audit == nil || at == nil {
		return
	}
	s.audit.Enqueue(audit.Event{
		Route:     at.Route(),
		Outcome:   o,
		Reason:    reason,
		RequestID: requestID(at.ID()),
		TraceID:   traceIDOf(at),
	})
}

// auditFeedback records one ground-truth label joining the trail: the
// request ID it claims, the label, and the join outcome.
func (s *Server) auditFeedback(reqID string, label int, status string) {
	if s.audit == nil {
		return
	}
	l := label
	s.audit.Enqueue(audit.Event{
		Route:     "feedback",
		Outcome:   audit.OutcomeOK,
		Reason:    status,
		RequestID: reqID,
		Label:     &l,
	})
}

// auditSwap records a model promotion, so replay can attribute every
// scored event on either side of the swap to its exact artifact.
func (s *Server) auditSwap(info ModelInfo, replaced uint64) {
	if s.audit == nil {
		return
	}
	s.audit.Enqueue(audit.Event{
		Route:        "model_swap",
		Outcome:      audit.OutcomeOK,
		Reason:       fmt.Sprintf("promoted %s over version %d", info.Name, replaced),
		ModelVersion: info.Version,
		ModelSHA256:  info.SHA256,
	})
}

// auditDebug is the GET /debug/audit body: writer state, counters, and
// the recent-events ring. With auditing disabled only Enabled is
// meaningful — every other field reads zero from the nil-safe log.
type auditDebug struct {
	Enabled   bool              `json:"enabled"`
	Dir       string            `json:"dir,omitempty"`
	LastSeq   uint64            `json:"last_seq"`
	ChainHead string            `json:"chain_head,omitempty"`
	Events    map[string]uint64 `json:"events"`
	Dropped   uint64            `json:"dropped"`
	Rotations uint64            `json:"rotations"`
	Recent    []audit.Event     `json:"recent,omitempty"`
}

// handleAuditDebug serves the audit writer's live state.
func (s *Server) handleAuditDebug(w http.ResponseWriter, r *http.Request) {
	seq, head := s.audit.Chain()
	resp := auditDebug{
		Enabled:   s.audit != nil,
		Dir:       s.audit.Dir(),
		LastSeq:   seq,
		ChainHead: head,
		Events:    make(map[string]uint64, len(audit.Outcomes)),
		Dropped:   s.audit.Dropped(),
		Rotations: s.audit.Rotations(),
		Recent:    s.audit.Recent(),
	}
	for _, o := range audit.Outcomes {
		resp.Events[o.String()] = s.audit.Events(o)
	}
	writeJSON(w, http.StatusOK, resp)
}

// promAudit emits the audit trail's metric families. Like the tracing
// families, they appear (zeroed) even with auditing disabled, so the
// golden exposition inventory is stable across configurations.
func (s *Server) promAudit(p *obs.PromWriter) {
	a := s.audit
	p.Header("hdfe_audit_events_total", "counter", "Audit events durably written to the hash chain, by outcome.")
	for _, o := range audit.Outcomes {
		p.Value("hdfe_audit_events_total", float64(a.Events(o)), "outcome", o.String())
	}
	p.Header("hdfe_audit_dropped_total", "counter", "Audit events lost: queue overflow, injected faults, or disk write failures.")
	p.Value("hdfe_audit_dropped_total", float64(a.Dropped()))
	p.Header("hdfe_audit_rotations_total", "counter", "Audit segment rotations.")
	p.Value("hdfe_audit_rotations_total", float64(a.Rotations()))
	p.Header("hdfe_audit_chain_length", "gauge", "Sequence number of the last durable audit event.")
	seq, _ := a.Chain()
	p.Value("hdfe_audit_chain_length", float64(seq))
	p.Header("hdfe_audit_fsyncs_total", "counter", "Completed fsyncs of the active audit segment.")
	p.Value("hdfe_audit_fsyncs_total", float64(a.FsyncCount()))
	p.Header("hdfe_audit_fsync_seconds_total", "counter", "Total time spent fsyncing audit segments.")
	p.Value("hdfe_audit_fsync_seconds_total", a.FsyncSeconds())
}
