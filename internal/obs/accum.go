package obs

import (
	"sync/atomic"
	"time"
)

// StageAccum accumulates per-record encode/distance timings reported by
// core's scoring hot path (it satisfies core.StageObserver structurally,
// keeping obs free of a core import). All methods are safe for
// concurrent use — scoring workers report in parallel — and a reset
// accumulator is reusable, so a caller timing many batches can keep one
// and account for them without allocating.
type StageAccum struct {
	encode   atomic.Int64 // nanoseconds
	distance atomic.Int64 // nanoseconds
	records  atomic.Int64
}

// ObserveRecords folds n records' encode and distance time into the
// accumulator.
func (a *StageAccum) ObserveRecords(n int, encode, distance time.Duration) {
	a.encode.Add(int64(encode))
	a.distance.Add(int64(distance))
	a.records.Add(int64(n))
}

// Reset zeroes the accumulator for reuse.
func (a *StageAccum) Reset() {
	a.encode.Store(0)
	a.distance.Store(0)
	a.records.Store(0)
}

// Totals returns the accumulated encode time, distance time, and record
// count since the last Reset.
func (a *StageAccum) Totals() (encode, distance time.Duration, records int) {
	return time.Duration(a.encode.Load()), time.Duration(a.distance.Load()), int(a.records.Load())
}
