package serve

import (
	"fmt"
	"sync/atomic"
	"time"

	"hdfe/internal/obs"
)

// Metrics is the server's lock-free counter set, exposed at /metrics.
// Every field is updated atomically; counters may be a hair out of sync
// with each other in one scrape, which is fine for observability.
type Metrics struct {
	start time.Time

	scoreRequests  atomic.Uint64 // POST /v1/score
	batchRequests  atomic.Uint64 // POST /v1/score/batch
	recordsScored  atomic.Uint64 // records through either endpoint
	validationErrs atomic.Uint64 // 4xx from request validation
	errors         atomic.Uint64 // other 4xx/5xx

	shed [numShedReasons]atomic.Uint64 // overload-protection rejections by reason

	// latency is the end-to-end time of every 200 response on a scoring
	// route, each bucket pinning its most recent trace as an exemplar.
	latency obs.Histogram
}

// NewMetrics returns a zeroed metrics set anchored at the current time.
func NewMetrics() *Metrics { return &Metrics{start: time.Now()} }

// ShedReason says why overload protection refused work; the reasons are
// the label values of the hdfe_shed_total metric family.
type ShedReason uint8

const (
	// ShedQueueFull: the admission gate's in-flight budget was exhausted
	// (429 + Retry-After).
	ShedQueueFull ShedReason = iota
	// ShedDeadline: the request's deadline passed before encode, so it
	// was answered 504 without being encoded.
	ShedDeadline
	// ShedDraining: the request arrived after shutdown began (503).
	ShedDraining

	numShedReasons
)

var shedReasonNames = [numShedReasons]string{"queue_full", "deadline", "draining"}

// String returns the reason's metric label value.
func (r ShedReason) String() string {
	if int(r) < int(numShedReasons) {
		return shedReasonNames[r]
	}
	return "unknown"
}

// Shed counts one refused unit of work.
func (m *Metrics) Shed(r ShedReason) { m.shed[r].Add(1) }

// ShedCount reads one reason's counter.
func (m *Metrics) ShedCount(r ShedReason) uint64 { return m.shed[r].Load() }

// String renders the terse one-line summary hdserve logs on shutdown.
func (m *Metrics) String() string {
	us := func(q float64) float64 { return float64(m.latency.Quantile(q)) / float64(time.Microsecond) }
	return fmt.Sprintf("score=%d batch=%d records=%d p50=%.0fus p99=%.0fus",
		m.scoreRequests.Load(), m.batchRequests.Load(), m.recordsScored.Load(), us(0.50), us(0.99))
}
