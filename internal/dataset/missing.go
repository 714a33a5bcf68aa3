package dataset

import (
	"math"
	"sort"
)

// DropMissing returns a new dataset containing only the rows with no NaN
// cells. This is the paper's "Pima R" preparation: "we removed subjects
// that had missing data".
func DropMissing(d *Dataset) *Dataset {
	keep := make([]int, 0, d.Len())
	for i, row := range d.X {
		complete := true
		for _, v := range row {
			if math.IsNaN(v) {
				complete = false
				break
			}
		}
		if complete {
			keep = append(keep, i)
		}
	}
	out := d.Subset(keep)
	out.Name = d.Name
	return out
}

// ImputeClassMedian returns a new dataset in which every NaN cell is
// replaced by the median of its column computed over the non-missing values
// of rows with the same class label. This is the paper's "Pima M"
// preparation (after Artem's Kaggle notebook): "each missing value was
// replaced with the median value of it's corresponding class".
//
// If a (column, class) pair has no observed values at all, the overall
// column median is used; if the entire column is missing, 0 is used.
func ImputeClassMedian(d *Dataset) *Dataset {
	out := d.Clone()
	cols := d.NumFeatures()
	for j := 0; j < cols; j++ {
		var perClass [2][]float64
		var overall []float64
		for i, row := range d.X {
			v := row[j]
			if math.IsNaN(v) {
				continue
			}
			perClass[d.Y[i]] = append(perClass[d.Y[i]], v)
			overall = append(overall, v)
		}
		fallback := 0.0
		if len(overall) > 0 {
			fallback = Median(overall)
		}
		var med [2]float64
		for c := 0; c < 2; c++ {
			if len(perClass[c]) > 0 {
				med[c] = Median(perClass[c])
			} else {
				med[c] = fallback
			}
		}
		for i, row := range out.X {
			if math.IsNaN(row[j]) {
				row[j] = med[out.Y[i]]
			}
		}
	}
	return out
}

// Median returns the median of vs (average of the two middle values for an
// even count). It panics on an empty slice and does not modify vs.
func Median(vs []float64) float64 {
	if len(vs) == 0 {
		panic("dataset: median of empty slice")
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
