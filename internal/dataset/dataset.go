// Package dataset provides the tabular data container used by every
// experiment: a float feature matrix with a named, typed schema and binary
// labels, plus the data-preparation steps the paper describes — dropping
// rows with missing values (Pima R), per-class median imputation (Pima M),
// per-class summary statistics (Table I) — and the split machinery for the
// paper's validation protocols (stratified k-fold, leave-one-out, holdout).
//
// Missing values are represented as NaN.
package dataset

import (
	"fmt"
	"math"
)

// Kind classifies a feature column.
type Kind int

const (
	// Continuous features carry magnitude information (age, glucose, ...).
	Continuous Kind = iota
	// Binary features take one of two values (symptoms, sex, ...).
	Binary
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case Continuous:
		return "continuous"
	case Binary:
		return "binary"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Feature describes one column of the schema.
type Feature struct {
	Name string
	Kind Kind
}

// Dataset is an immutable-by-convention tabular dataset with binary labels
// (1 = positive class, 0 = negative class).
type Dataset struct {
	// Name identifies the dataset in tables and logs ("Pima R", "Syhlet").
	Name string
	// Features is the column schema; len(Features) == len(X[i]) for all i.
	Features []Feature
	// X is the row-major feature matrix. NaN marks a missing value.
	X [][]float64
	// Y holds the class label of each row (0 or 1).
	Y []int
}

// New validates and wraps the given parts into a Dataset. It returns an
// error if shapes disagree, the schema is empty, or a label is not 0/1.
func New(name string, features []Feature, X [][]float64, y []int) (*Dataset, error) {
	if len(features) == 0 {
		return nil, fmt.Errorf("dataset %q: empty schema", name)
	}
	if len(X) != len(y) {
		return nil, fmt.Errorf("dataset %q: %d rows but %d labels", name, len(X), len(y))
	}
	for i, row := range X {
		if len(row) != len(features) {
			return nil, fmt.Errorf("dataset %q: row %d has %d values for %d features", name, i, len(row), len(features))
		}
	}
	for i, label := range y {
		if label != 0 && label != 1 {
			return nil, fmt.Errorf("dataset %q: label %d of row %d is not binary", name, label, i)
		}
	}
	return &Dataset{Name: name, Features: features, X: X, Y: y}, nil
}

// MustNew is New but panics on error; for use in tests and generators whose
// inputs are constructed programmatically.
func MustNew(name string, features []Feature, X [][]float64, y []int) *Dataset {
	d, err := New(name, features, X, y)
	if err != nil {
		panic(err)
	}
	return d
}

// Len returns the number of rows.
func (d *Dataset) Len() int { return len(d.X) }

// NumFeatures returns the number of columns.
func (d *Dataset) NumFeatures() int { return len(d.Features) }

// ClassCounts returns (negatives, positives).
func (d *Dataset) ClassCounts() (neg, pos int) {
	for _, label := range d.Y {
		if label == 1 {
			pos++
		} else {
			neg++
		}
	}
	return neg, pos
}

// Clone returns a deep copy (rows, labels, and schema all copied).
func (d *Dataset) Clone() *Dataset {
	X := make([][]float64, len(d.X))
	for i, row := range d.X {
		X[i] = append([]float64(nil), row...)
	}
	return &Dataset{
		Name:     d.Name,
		Features: append([]Feature(nil), d.Features...),
		X:        X,
		Y:        append([]int(nil), d.Y...),
	}
}

// Subset returns a new Dataset containing the given rows (shared row
// slices, copied outer structure). Row order follows idx.
func (d *Dataset) Subset(idx []int) *Dataset {
	X := make([][]float64, len(idx))
	y := make([]int, len(idx))
	for i, r := range idx {
		X[i] = d.X[r]
		y[i] = d.Y[r]
	}
	return &Dataset{Name: d.Name, Features: d.Features, X: X, Y: y}
}

// HasMissing reports whether any cell is NaN.
func (d *Dataset) HasMissing() bool {
	for _, row := range d.X {
		for _, v := range row {
			if math.IsNaN(v) {
				return true
			}
		}
	}
	return false
}

// MissingCount returns the number of NaN cells.
func (d *Dataset) MissingCount() int {
	n := 0
	for _, row := range d.X {
		for _, v := range row {
			if math.IsNaN(v) {
				n++
			}
		}
	}
	return n
}
