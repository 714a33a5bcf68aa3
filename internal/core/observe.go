package core

import (
	"time"

	"hdfe/internal/hv"
	"hdfe/internal/parallel"
)

// StageObserver receives per-record stage timings from the scoring hot
// path, splitting the cost of one scored record into hypervector
// encoding versus Hamming-distance scoring. Implementations must be safe
// for concurrent use: batch scoring reports from every worker.
//
// The interface lives here (not in an observability package) so core
// stays import-cycle-free; obs.StageAccum satisfies it structurally.
type StageObserver interface {
	ObserveRecord(encode, distance time.Duration)
}

// ScoreBatchIntoObserved is ScoreBatchInto reporting each record's
// encode and distance time to o. A nil observer skips the clock reads,
// so callers can thread one optional hook without branching themselves.
// The timing overhead is three monotonic clock reads per record —
// negligible against a 10,000-bit encode.
func (d *Deployment) ScoreBatchIntoObserved(rows [][]float64, dst []float64, o StageObserver) []float64 {
	if cap(dst) < len(rows) {
		dst = make([]float64, len(rows))
	}
	dst = dst[:len(rows)]
	parallel.ForChunked(len(rows), func(lo, hi int) {
		s := hv.GetScratch(d.Extractor.Dim())
		defer hv.PutScratch(s)
		for i := lo; i < hi; i++ {
			if o == nil {
				dst[i] = d.scoreWithScratch(rows[i], s)
				continue
			}
			rec := s.Rec()
			start := time.Now()
			d.Extractor.TransformRecordInto(rows[i], rec, s)
			encoded := time.Now()
			dst[i] = ClassAffinity(rec, d.NegProto, d.PosProto)
			o.ObserveRecord(encoded.Sub(start), time.Since(encoded))
		}
	})
	return dst
}
