package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// The latency ladder. Coarse bucket k < numBuckets holds durations in
// (50µs·2^(k-1), 50µs·2^k] (bucket 0 everything up to 50µs), and one
// overflow bucket holds the rest, past ~1.6s. Prometheus sees the coarse
// buckets as le bounds. Inside the ladder each octave is counted in
// subBuckets geometric sub-buckets, so a quantile read from a sub-bucket's
// upper edge overstates the true value by at most 2^(1/subBuckets): the
// relative-error bound of DDSketch (Masson et al., VLDB 2019).
const (
	latencyBase = 50 * time.Microsecond
	numBuckets  = 16
	subBuckets  = 8
	// numSlots counts the sub-buckets: one for bucket 0, subBuckets for
	// each further bounded bucket, and one for overflow.
	numSlots = 1 + (numBuckets-1)*subBuckets + 1
)

// slotEdge holds each bounded slot's inclusive upper edge in nanoseconds,
// ⌊50µs·2^(i/subBuckets)⌋. A duration is a whole number of nanoseconds,
// so d ≤ ⌊edge⌋ exactly when d ≤ edge; every octave edge is an exact
// integer, so the coarse buckets keep their exact bounds.
var slotEdge = func() (e [numSlots - 1]int64) {
	for i := range e {
		if i%subBuckets == 0 {
			e[i] = int64(latencyBase) << (i / subBuckets)
		} else {
			e[i] = int64(float64(latencyBase) * math.Exp2(float64(i)/subBuckets))
		}
	}
	return e
}()

// promBounds are the coarse le bounds in seconds.
var promBounds = func() (b [numBuckets]float64) {
	for k := range b {
		b[k] = (latencyBase << k).Seconds()
	}
	return b
}()

// slot returns the sub-bucket d falls in.
func slot(d time.Duration) int {
	if d <= latencyBase {
		return 0
	}
	// d lies in (base·2^(k-1), base·2^k] exactly when ⌊(d-1)/base⌋ has
	// bit length k.
	k := bits.Len64(uint64(d-1) / uint64(latencyBase))
	if k >= numBuckets {
		return numSlots - 1
	}
	i := (k-1)*subBuckets + 1
	for int64(d) > slotEdge[i] {
		i++
	}
	return i
}

// coarse returns the Prometheus bucket a slot folds into.
func coarse(slot int) int { return (slot + subBuckets - 1) / subBuckets }

// Histogram is a lock-free latency histogram: counts per sub-bucket of
// the ladder above, the exact sum in nanoseconds, and the most recent
// exemplar trace per Prometheus bucket. The zero value is ready to use,
// and Observe without an exemplar never allocates.
type Histogram struct {
	slots [numSlots]atomic.Uint64
	sum   atomic.Uint64 // nanoseconds
	ex    [numBuckets + 1]atomic.Pointer[Exemplar]
}

// Observe records one duration and, unless traceID is empty, pins it
// as the exemplar of d's Prometheus bucket.
func (h *Histogram) Observe(d time.Duration, traceID string) {
	i := slot(d)
	h.slots[i].Add(1)
	h.sum.Add(uint64(d))
	if traceID != "" {
		h.ex[coarse(i)].Store(&Exemplar{TraceID: traceID, Value: d.Seconds(), Ts: time.Now()})
	}
}

// Quantile returns the upper edge of the sub-bucket holding the
// q-quantile order statistic, the ⌈q·n⌉-th smallest of n observations
// (0 when empty). Between 50µs and ~1.6s it is at most 2^(1/8) ≈ 1.0905
// times that observation; at or below 50µs it reads 50µs, and past the
// last bound it reads twice that bound.
func (h *Histogram) Quantile(q float64) time.Duration {
	var total uint64
	for i := range h.slots {
		total += h.slots[i].Load()
	}
	if total == 0 {
		return 0
	}
	rank := min(max(uint64(math.Ceil(q*float64(total))), 1), total)
	// Counts only grow, so this pass sums to at least total: a rank
	// that no bounded slot reaches is in the overflow slot.
	var cum uint64
	for i, edge := range slotEdge {
		if cum += h.slots[i].Load(); cum >= rank {
			return time.Duration(edge)
		}
	}
	return 2 * (latencyBase << (numBuckets - 1))
}

// WriteProm renders the histogram as one series of a Prometheus histogram
// family whose Header the caller has written: the sub-buckets fold onto
// the coarse le bounds, and each bucket carries its exemplar, if any.
func (h *Histogram) WriteProm(p *PromWriter, name string, labels ...string) {
	counts := make([]uint64, numBuckets+1)
	for i := range h.slots {
		counts[coarse(i)] += h.slots[i].Load()
	}
	ex := make([]*Exemplar, numBuckets+1)
	for k := range ex {
		ex[k] = h.ex[k].Load()
	}
	p.HistogramExemplars(name, promBounds[:], counts, time.Duration(h.sum.Load()).Seconds(), ex, labels...)
}
