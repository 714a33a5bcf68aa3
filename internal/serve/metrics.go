package serve

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"hdfe/internal/obs"
)

// Batch-size histogram buckets: 1, 2, 3-4, 5-8, ..., 65+. Power-of-two
// bucketing keeps the histogram meaningful for any maxBatch without
// configuration.
var batchBucketLabels = [...]string{"1", "2", "3-4", "5-8", "9-16", "17-32", "33-64", "65+"}

func batchBucket(n int) int {
	switch {
	case n <= 1:
		return 0
	case n == 2:
		return 1
	case n <= 4:
		return 2
	case n <= 8:
		return 3
	case n <= 16:
		return 4
	case n <= 32:
		return 5
	case n <= 64:
		return 6
	default:
		return 7
	}
}

// latencyBuckets are exponential upper bounds in microseconds: 50µs
// doubling up to ~1.6s, plus an overflow bucket.
const numLatencyBuckets = 16

func latencyBound(i int) time.Duration {
	return 50 * time.Microsecond << uint(i)
}

// Metrics is the server's lock-free counter set. All fields are updated
// with atomics; Snapshot produces a consistent-enough view for /metrics
// and /metrics.json (counters may be a hair out of sync with each other,
// which is fine for observability).
type Metrics struct {
	start time.Time

	scoreRequests  atomic.Uint64 // POST /v1/score
	batchRequests  atomic.Uint64 // POST /v1/score/batch
	recordsScored  atomic.Uint64 // records through either endpoint
	validationErrs atomic.Uint64 // 4xx from request validation
	timeouts       atomic.Uint64 // requests abandoned on context expiry
	errors         atomic.Uint64 // other 4xx/5xx

	batches             atomic.Uint64 // microbatcher ScoreBatch calls
	microbatchedRecords atomic.Uint64 // records scored through the batcher
	batchHist           [len(batchBucketLabels)]atomic.Uint64

	shed [numShedReasons]atomic.Uint64 // overload-protection rejections by reason

	latencyHist [numLatencyBuckets + 1]atomic.Uint64
	latencyObs  atomic.Uint64
	latencySum  atomic.Uint64 // nanoseconds, for Prometheus _sum

	// latencyEx pins the most recent trace per latency bucket, exposed
	// as OpenMetrics exemplars so a dashboard histogram links straight
	// to a concrete trace.
	latencyEx [numLatencyBuckets + 1]atomic.Pointer[latencyExemplar]
}

// latencyExemplar is one bucket's most recent (traceID, latency) pair.
type latencyExemplar struct {
	traceID string
	d       time.Duration
	ts      time.Time
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
	// ShedDeadline: a queued record's deadline expired before its batch
	// was scored, so the batch loop abandoned it before encode/score
	// work was spent.
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

// ObserveBatch records one microbatcher batch of n records.
func (m *Metrics) ObserveBatch(n int) {
	m.batches.Add(1)
	m.microbatchedRecords.Add(uint64(n))
	m.batchHist[batchBucket(n)].Add(1)
}

// ObserveLatencyTrace records one end-to-end request latency, pinning
// traceID as the bucket's exemplar (skipped when empty).
func (m *Metrics) ObserveLatencyTrace(d time.Duration, traceID string) {
	i := 0
	for i < numLatencyBuckets && d > latencyBound(i) {
		i++
	}
	m.latencyHist[i].Add(1)
	m.latencyObs.Add(1)
	m.latencySum.Add(uint64(d))
	if traceID != "" {
		m.latencyEx[i].Store(&latencyExemplar{traceID: traceID, d: d, ts: time.Now()})
	}
}

// latencyExemplars materializes the per-bucket exemplars in the shape
// obs.PromWriter.HistogramExemplars renders (nil entries skip).
func (m *Metrics) latencyExemplars() []*obs.Exemplar {
	out := make([]*obs.Exemplar, numLatencyBuckets+1)
	for i := range m.latencyEx {
		if e := m.latencyEx[i].Load(); e != nil {
			out[i] = &obs.Exemplar{TraceID: e.traceID, Value: e.d.Seconds(), Ts: e.ts}
		}
	}
	return out
}

// quantile returns the upper bound of the first latency bucket whose
// cumulative count reaches q of all observations (0 when empty). Bucketed
// quantiles overestimate by at most one bucket width — plenty for p50/p99
// dashboards.
func (m *Metrics) quantile(q float64) time.Duration {
	total := m.latencyObs.Load()
	if total == 0 {
		return 0
	}
	// Rank of the q-quantile order statistic. Ceiling, not truncation:
	// with 9 fast samples and 1 overflow sample, p99's rank must be 10
	// (the overflow sample), not 9 — truncation let an empty-tail
	// histogram report a p99 below an observed overflow latency.
	target := uint64(math.Ceil(q * float64(total)))
	if target == 0 {
		target = 1
	}
	if target > total {
		target = total
	}
	var cum uint64
	for i := range m.latencyHist {
		cum += m.latencyHist[i].Load()
		if cum >= target {
			if i >= numLatencyBuckets {
				return latencyBound(numLatencyBuckets-1) * 2
			}
			return latencyBound(i)
		}
	}
	return latencyBound(numLatencyBuckets-1) * 2
}

// BatchBucket is one batch-size histogram cell.
type BatchBucket struct {
	Size  string `json:"size"`
	Count uint64 `json:"count"`
}

// Snapshot is the JSON shape of /metrics.
type Snapshot struct {
	UptimeSeconds    float64       `json:"uptime_seconds"`
	ScoreRequests    uint64        `json:"score_requests"`
	BatchRequests    uint64        `json:"batch_requests"`
	RecordsScored    uint64        `json:"records_scored"`
	ValidationErrors uint64        `json:"validation_errors"`
	Timeouts         uint64        `json:"timeouts"`
	Errors           uint64        `json:"errors"`
	ShedQueueFull    uint64        `json:"shed_queue_full"`
	ShedDeadline     uint64        `json:"shed_deadline"`
	ShedDraining     uint64        `json:"shed_draining"`
	Batches          uint64        `json:"batches"`
	MeanBatchSize    float64       `json:"mean_batch_size"`
	BatchSizes       []BatchBucket `json:"batch_size_histogram"`
	LatencyP50Micros float64       `json:"latency_p50_us"`
	LatencyP90Micros float64       `json:"latency_p90_us"`
	LatencyP99Micros float64       `json:"latency_p99_us"`
}

// Snapshot materializes the current counters.
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{
		UptimeSeconds:    time.Since(m.start).Seconds(),
		ScoreRequests:    m.scoreRequests.Load(),
		BatchRequests:    m.batchRequests.Load(),
		RecordsScored:    m.recordsScored.Load(),
		ValidationErrors: m.validationErrs.Load(),
		Timeouts:         m.timeouts.Load(),
		Errors:           m.errors.Load(),
		ShedQueueFull:    m.shed[ShedQueueFull].Load(),
		ShedDeadline:     m.shed[ShedDeadline].Load(),
		ShedDraining:     m.shed[ShedDraining].Load(),
		Batches:          m.batches.Load(),
		LatencyP50Micros: float64(m.quantile(0.50)) / float64(time.Microsecond),
		LatencyP90Micros: float64(m.quantile(0.90)) / float64(time.Microsecond),
		LatencyP99Micros: float64(m.quantile(0.99)) / float64(time.Microsecond),
	}
	for i := range m.batchHist {
		s.BatchSizes = append(s.BatchSizes, BatchBucket{Size: batchBucketLabels[i], Count: m.batchHist[i].Load()})
	}
	if s.Batches > 0 {
		// Mean over microbatched records only; the batch endpoint bypasses
		// the batcher and is excluded so the mean reflects coalescing.
		s.MeanBatchSize = float64(m.microbatchedRecords.Load()) / float64(s.Batches)
	}
	return s
}

// String renders a terse one-line summary, handy in logs.
func (s Snapshot) String() string {
	return fmt.Sprintf("score=%d batch=%d records=%d batches=%d mean_batch=%.2f p50=%.0fus p99=%.0fus",
		s.ScoreRequests, s.BatchRequests, s.RecordsScored, s.Batches,
		s.MeanBatchSize, s.LatencyP50Micros, s.LatencyP99Micros)
}
