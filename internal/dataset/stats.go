package dataset

import "math"

// FeatureSummary holds the per-class statistics of one feature, matching
// the shape of the paper's Table I: mean plus observed range, separately
// for the positive and negative class. NaN cells are excluded.
type FeatureSummary struct {
	Name    string
	PosMean float64
	PosMin  float64
	PosMax  float64
	NegMean float64
	NegMin  float64
	NegMax  float64
}

// Summarize computes a FeatureSummary for every feature. Classes with no
// observed values yield NaN statistics.
func Summarize(d *Dataset) []FeatureSummary {
	out := make([]FeatureSummary, d.NumFeatures())
	for j := range out {
		s := FeatureSummary{Name: d.Features[j].Name}
		s.PosMean, s.PosMin, s.PosMax = classStats(d, j, 1)
		s.NegMean, s.NegMin, s.NegMax = classStats(d, j, 0)
		out[j] = s
	}
	return out
}

func classStats(d *Dataset, j, class int) (mean, min, max float64) {
	var sum float64
	n := 0
	min, max = math.Inf(1), math.Inf(-1)
	for i, row := range d.X {
		if d.Y[i] != class || math.IsNaN(row[j]) {
			continue
		}
		v := row[j]
		sum += v
		n++
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	return sum / float64(n), min, max
}
