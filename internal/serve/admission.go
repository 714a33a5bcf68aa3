package serve

import (
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"hdfe/internal/obs"
	"hdfe/internal/obs/audit"
)

// admission is the overload gate in front of both scoring routes: a
// record-level in-flight budget that fast-rejects excess load before
// validation or encode is spent on it. Shedding here is the whole point
// of the design — a rejected request costs a counter bump and a tiny JSON
// body, while an admitted one costs validation and a few µs/record of
// encode downstream (DESIGN.md §12). /v1/score consults the gate before
// reading its body; /v1/score/batch must read and parse its body first,
// because only the body says how many records to admit. It is also what
// bounds concurrent encode work.
//
// The budget counts records, not requests: a /v1/score call holds one
// unit from admission to response, a /v1/score/batch call holds one per
// record. A single batch larger than the whole budget is still admitted
// when the server is otherwise idle (cur == 0), so an oversized-but-legal
// batch cannot starve forever; two such batches do queue behind the gate.
type admission struct {
	limit      int64 // <= 0: unlimited
	inflight   atomic.Int64
	retryAfter time.Duration
}

func newAdmission(limit int, retryAfter time.Duration) *admission {
	return &admission{limit: int64(limit), retryAfter: retryAfter}
}

// tryAcquire admits n records, or reports false with the budget
// untouched.
func (a *admission) tryAcquire(n int64) bool {
	if a.limit <= 0 {
		return true
	}
	for {
		cur := a.inflight.Load()
		if cur+n > a.limit && cur != 0 {
			return false
		}
		if a.inflight.CompareAndSwap(cur, cur+n) {
			return true
		}
	}
}

// release returns n records to the budget.
func (a *admission) release(n int64) {
	if a.limit <= 0 {
		return
	}
	a.inflight.Add(-n)
}

// Inflight reports the records currently admitted — the gauge /metrics
// exports.
func (a *admission) Inflight() int64 { return a.inflight.Load() }

// retryAfterHeader renders the Retry-After hint in whole seconds
// (minimum 1, per RFC 9110 the value is a non-negative integer and 0
// would invite an immediate retry storm).
func (a *admission) retryAfterHeader() string {
	secs := int64(a.retryAfter / time.Second)
	if a.retryAfter%time.Second != 0 {
		secs++
	}
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// shed writes the overload rejection for one request: the Retry-After
// hint, the shed counter bump, the shed reason on the trace (so the
// trace always survives tail sampling), and the JSON body carrying the
// trace ID. status is 429 for budget rejections and 503 for requests
// arriving while draining.
func (s *Server) shed(w http.ResponseWriter, at *obs.ActiveTrace, status int, reason ShedReason, msg string) {
	at.SetShed(reason.String())
	s.metrics.Shed(reason)
	s.auditOutcome(at, audit.OutcomeShed, reason.String())
	w.Header().Set("Retry-After", s.adm.retryAfterHeader())
	writeJSON(w, status, errorResponse{Error: msg, TraceID: traceIDOf(at)})
}
