// Package obs is the observability layer for the hdfe serving stack:
// request-scoped pipeline tracing with per-stage latency histograms,
// hand-rolled Prometheus text-format exposition, and structured-logging
// construction — all standard library, all allocation-conscious on the
// hot path.
//
// The scoring pipeline is modelled as five stages:
//
//	validate    parse + schema-validate the request body
//	batch_wait  time a record sat in an open microbatch before scoring
//	encode      hypervector encoding (TransformRecordInto)
//	score       Hamming-distance scoring against the class prototypes
//	respond     response serialization
//
// A Tracer hands out pooled ActiveTrace spans (zero steady-state
// allocations per request), accumulates per-stage durations into
// lock-free histograms, and keeps fixed-size rings of the most recent
// and slowest finished traces for /debug/traces.
package obs

import "time"

// Stage identifies one pipeline stage of a scoring request.
type Stage uint8

// The pipeline stages, in request order.
const (
	StageValidate Stage = iota
	StageBatchWait
	StageEncode
	StageScore
	StageRespond
)

// NumStages is the number of pipeline stages.
const NumStages = int(StageRespond) + 1

var stageNames = [NumStages]string{"validate", "batch_wait", "encode", "score", "respond"}

// String returns the stage's snake_case metric label.
func (s Stage) String() string {
	if int(s) < NumStages {
		return stageNames[s]
	}
	return "unknown"
}

// NumLatencyBuckets is the number of bounded histogram buckets; one
// overflow bucket follows. The ladder matches internal/serve's request
// latency histogram: 50µs doubling up to ~1.6s.
const NumLatencyBuckets = 16

// LatencyBound returns the inclusive upper bound of bounded bucket i.
func LatencyBound(i int) time.Duration {
	return 50 * time.Microsecond << uint(i)
}
