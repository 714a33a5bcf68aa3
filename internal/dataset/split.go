package dataset

import (
	"fmt"

	"hdfe/internal/rng"
)

// Fold is one train/test partition of row indices.
type Fold struct {
	Train []int
	Test  []int
}

// StratifiedKFold partitions the rows into k folds that each preserve the
// overall class balance as closely as possible (the paper's 10-fold CV
// protocol). Rows are shuffled per class with r before assignment, so the
// folds are random but reproducible. It panics if k < 2 or k exceeds the
// size of the smaller class.
func StratifiedKFold(d *Dataset, k int, r *rng.Source) []Fold {
	if k < 2 {
		panic(fmt.Sprintf("dataset: k-fold with k=%d", k))
	}
	byClass := classIndices(d)
	for c, idx := range byClass {
		if len(idx) > 0 && len(idx) < k {
			panic(fmt.Sprintf("dataset: class %d has %d rows, fewer than k=%d", c, len(idx), k))
		}
	}
	assign := make([]int, d.Len()) // row -> fold
	for _, idx := range byClass {
		r.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for pos, row := range idx {
			assign[row] = pos % k
		}
	}
	folds := make([]Fold, k)
	for row, f := range assign {
		for fi := range folds {
			if fi == f {
				folds[fi].Test = append(folds[fi].Test, row)
			} else {
				folds[fi].Train = append(folds[fi].Train, row)
			}
		}
	}
	return folds
}

// StratifiedSplit splits the rows into two groups with the given fraction
// in the first group, preserving class balance (each class is split
// separately, rounding the first group's share to the nearest integer).
// Used for the paper's 90/10 test protocol.
func StratifiedSplit(d *Dataset, firstFraction float64, r *rng.Source) (first, second []int) {
	if firstFraction < 0 || firstFraction > 1 {
		panic(fmt.Sprintf("dataset: split fraction %v out of [0,1]", firstFraction))
	}
	for _, idx := range classIndices(d) {
		r.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		cut := int(firstFraction*float64(len(idx)) + 0.5)
		first = append(first, idx[:cut]...)
		second = append(second, idx[cut:]...)
	}
	return first, second
}

// TrainValTest splits rows into three stratified groups with the given
// fractions (which must sum to ~1). This is the paper's 70/15/15 protocol
// for the sequential neural network.
func TrainValTest(d *Dataset, trainFrac, valFrac float64, r *rng.Source) (train, val, test []int) {
	if trainFrac < 0 || valFrac < 0 || trainFrac+valFrac > 1 {
		panic(fmt.Sprintf("dataset: bad fractions %v/%v", trainFrac, valFrac))
	}
	for _, idx := range classIndices(d) {
		r.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		n := len(idx)
		trainCut := int(trainFrac*float64(n) + 0.5)
		valCut := trainCut + int(valFrac*float64(n)+0.5)
		if valCut > n {
			valCut = n
		}
		train = append(train, idx[:trainCut]...)
		val = append(val, idx[trainCut:valCut]...)
		test = append(test, idx[valCut:]...)
	}
	return train, val, test
}

func classIndices(d *Dataset) [2][]int {
	var byClass [2][]int
	for i, label := range d.Y {
		byClass[label] = append(byClass[label], i)
	}
	return byClass
}
