// Package obs is the observability layer for the hdfe serving stack:
// request-scoped pipeline tracing with per-stage latency histograms,
// hand-rolled Prometheus text-format exposition, and structured-logging
// construction — all standard library, all allocation-conscious on the
// hot path.
//
// The scoring pipeline is modelled as four stages:
//
//	validate    read, parse + schema-validate the request body
//	encode      hypervector encoding (TransformRecordInto)
//	score       Hamming-distance scoring against the class prototypes
//	respond     response serialization
//
// A Tracer hands out pooled ActiveTrace spans (zero steady-state
// allocations per request), folds per-stage durations into lock-free
// Histograms, and keeps fixed-size rings of the most recent and slowest
// finished traces for /debug/traces. Histogram, which hdserve's request
// latency uses too, reads quantiles with a bounded relative error.
//
// Handoff is the one bounded, lossy queue between a handler and the
// worker goroutines that finish a decision off the scoring path: the
// shadow scorer, the OTLP span exporter and the audit writer.
package obs

// Stage identifies one pipeline stage of a scoring request.
type Stage uint8

// The pipeline stages, in request order.
const (
	StageValidate Stage = iota
	StageEncode
	StageScore
	StageRespond
)

// NumStages is the number of pipeline stages.
const NumStages = int(StageRespond) + 1

var stageNames = [NumStages]string{"validate", "encode", "score", "respond"}

// String returns the stage's snake_case metric label.
func (s Stage) String() string {
	if int(s) < NumStages {
		return stageNames[s]
	}
	return "unknown"
}
