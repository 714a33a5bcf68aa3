package core

import (
	"time"

	"hdfe/internal/hv"
)

// StageObserver receives stage timings from the scoring hot path,
// splitting the cost of scored records into hypervector encoding versus
// Hamming-distance scoring. Implementations must be safe for concurrent
// use: a server's concurrent requests report to one at once.
//
// The interface lives here (not in an observability package) so core
// stays import-cycle-free; obs.StageAccum satisfies it structurally.
type StageObserver interface {
	// ObserveRecords reports n scored records that took encode and
	// distance time in all.
	ObserveRecords(n int, encode, distance time.Duration)
}

// ScoreBatchIntoObserved scores rows into dst (allocated if nil or short)
// on the calling goroutine, with one pooled encode scratch, and reports
// their encode and distance time to o in one call. It is the serving
// primitive: a server's parallelism comes from its concurrent requests,
// so one request's records are not split across workers. A nil observer
// skips the clock reads, so callers can thread one optional hook without
// branching themselves. The clock is read once at the start and twice
// per record: the end of one record's distance is the start of the next
// record's encode.
func (d *Deployment) ScoreBatchIntoObserved(rows [][]float64, dst []float64, o StageObserver) []float64 {
	if cap(dst) < len(rows) {
		dst = make([]float64, len(rows))
	}
	dst = dst[:len(rows)]
	if len(rows) == 0 {
		return dst
	}
	s := hv.GetScratch(d.Extractor.Dim())
	defer hv.PutScratch(s)
	if o == nil {
		for i, row := range rows {
			dst[i] = d.scoreWithScratch(row, s)
		}
		return dst
	}
	rec := s.Rec()
	// Stage boundaries are offsets from base: time.Since reads only
	// the monotonic clock, time.Now the wall clock as well.
	base := time.Now()
	var encode, distance, last time.Duration
	for i, row := range rows {
		d.Extractor.TransformRecordInto(row, rec, s)
		encoded := time.Since(base)
		dst[i] = ClassAffinity(rec, d.NegProto, d.PosProto)
		done := time.Since(base)
		encode += encoded - last
		distance += done - encoded
		last = done
	}
	o.ObserveRecords(len(rows), encode, distance)
	return dst
}
