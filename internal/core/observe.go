package core

import (
	"time"

	"hdfe/internal/hv"
	"hdfe/internal/parallel"
)

// StageObserver receives stage timings from the scoring hot path,
// splitting the cost of scored records into hypervector encoding versus
// Hamming-distance scoring. Implementations must be safe for concurrent
// use: batch scoring reports from every worker.
//
// The interface lives here (not in an observability package) so core
// stays import-cycle-free; obs.StageAccum satisfies it structurally.
type StageObserver interface {
	// ObserveRecords reports n scored records that took encode and
	// distance time in all.
	ObserveRecords(n int, encode, distance time.Duration)
}

// ScoreBatchIntoObserved is ScoreBatchInto reporting its records' encode
// and distance time to o, with one call per worker chunk. A nil observer
// skips the clock reads, so callers can thread one optional hook without
// branching themselves. A chunk reads the clock once at its start and
// twice per record: the end of one record's distance is the start of the
// next record's encode.
func (d *Deployment) ScoreBatchIntoObserved(rows [][]float64, dst []float64, o StageObserver) []float64 {
	if cap(dst) < len(rows) {
		dst = make([]float64, len(rows))
	}
	dst = dst[:len(rows)]
	parallel.ForChunked(len(rows), func(lo, hi int) {
		s := hv.GetScratch(d.Extractor.Dim())
		defer hv.PutScratch(s)
		if o == nil {
			for i := lo; i < hi; i++ {
				dst[i] = d.scoreWithScratch(rows[i], s)
			}
			return
		}
		rec := s.Rec()
		// Stage boundaries are offsets from base: time.Since reads only
		// the monotonic clock, time.Now the wall clock as well.
		base := time.Now()
		var encode, distance, last time.Duration
		for i := lo; i < hi; i++ {
			d.Extractor.TransformRecordInto(rows[i], rec, s)
			encoded := time.Since(base)
			dst[i] = ClassAffinity(rec, d.NegProto, d.PosProto)
			done := time.Since(base)
			encode += encoded - last
			distance += done - encoded
			last = done
		}
		o.ObserveRecords(hi-lo, encode, distance)
	})
	return dst
}
