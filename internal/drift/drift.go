// Package drift is the model/data observability layer for the hdfe
// serving stack: it answers "is the model still looking at the world it
// was fitted on, and is it still right?" — the two questions the
// pipeline-level observability of internal/obs cannot.
//
// Three concerns, one package:
//
//   - Input drift. A Reference captures per-feature histograms of the
//     training matrix at fit time and travels inside the deployment
//     file. A Monitor mirrors those histograms over live requests in
//     lock-free atomic buckets and reports the population stability
//     index (PSI) plus the out-of-range (clamp) rate per feature. The
//     clamp rate matters specifically for HDC level encoding: values
//     outside the fitted [min, max] are clamped to the extreme level
//     codewords, so out-of-range mass directly distorts the Hamming
//     geometry every score is computed in.
//
//   - Prediction drift. A ScoreWindow keeps a rolling window of emitted
//     risk scores and summarizes the score distribution, the predicted-
//     positive rate, and the mean decision margin.
//
//   - Delayed-label quality. A Quality tracker remembers recent
//     predictions in a bounded ring indexed by an integer key that the
//     caller derives from each prediction's request ID; ground-truth
//     labels posted later (the clinical follow-up arriving days after
//     the screening request) join back to their prediction, feeding
//     online confusion counts, rolling accuracy/F1, and a canary check
//     against the LOOCV baseline stored in the deployment.
//
// Everything here is standard library only. Observation paths are
// designed for the scoring hot path and take a whole request at a time
// (atomic adds, no locks on the input monitor; one short mutex hold on
// the quality ring), while snapshots may allocate freely — they serve
// /debug/drift and /metrics scrapes.
package drift

import "math"

// DefaultBins is the histogram resolution used for reference and live
// feature histograms. Ten buckets is the conventional PSI binning: fine
// enough to see shape, coarse enough that per-bucket counts stay
// statistically meaningful at clinical cohort sizes.
const DefaultBins = 10

// psiEpsilon floors bucket proportions so PSI stays finite when a bucket
// is empty on one side (the standard smoothing for the index).
const psiEpsilon = 1e-4

// PSI computes the population stability index between a reference
// distribution (expected) and a live distribution (actual) over aligned
// cells: sum over cells of (q-p) * ln(q/p) with proportions floored at
// psiEpsilon. Conventional reading: < 0.1 stable, 0.1-0.25 moderate
// shift, > 0.25 significant shift. Either side having no mass yields 0
// (nothing to compare yet).
func PSI(expected, actual []uint64) float64 {
	if len(expected) != len(actual) {
		panic("drift: PSI over mismatched cell counts")
	}
	var expTotal, actTotal uint64
	for i := range expected {
		expTotal += expected[i]
		actTotal += actual[i]
	}
	if expTotal == 0 || actTotal == 0 {
		return 0
	}
	var psi float64
	for i := range expected {
		p := float64(expected[i]) / float64(expTotal)
		q := float64(actual[i]) / float64(actTotal)
		if p < psiEpsilon {
			p = psiEpsilon
		}
		if q < psiEpsilon {
			q = psiEpsilon
		}
		psi += (q - p) * math.Log(q/p)
	}
	return psi
}

// bucketOf maps a value into one of bins uniform buckets over [lo, hi],
// returning -1 for below-range and bins for above-range. A degenerate
// range (hi == lo) maps every in-range value to bucket 0. NaN must be
// handled by the caller (it is a "missing" observation, not a position).
func bucketOf(t, lo, hi float64, bins int) int {
	if t < lo {
		return -1
	}
	if t > hi {
		return bins
	}
	if hi == lo {
		return 0
	}
	b := int(float64(bins) * (t - lo) / (hi - lo))
	if b >= bins {
		b = bins - 1 // t == hi lands in the last bucket
	}
	return b
}
