package hv

import (
	"fmt"
	"math/bits"
)

// TieBreak selects how Bundle resolves a per-bit tie (equal numbers of ones
// and zeros, possible only when bundling an even number of vectors).
type TieBreak int

const (
	// TieToOne sets tied bits to 1. This is the paper's rule (§II.B).
	TieToOne TieBreak = iota
	// TieToZero sets tied bits to 0.
	TieToZero
)

// Bundle combines vs by bitwise majority vote: output bit i is the most
// common value of bit i across vs, with ties resolved by tie. This is the
// paper's record-encoding operator (each patient hypervector is the
// majority bundle of its feature hypervectors).
//
// Bundle panics if vs is empty or dimensionalities disagree.
func Bundle(vs []Vector, tie TieBreak) Vector {
	if len(vs) == 0 {
		panic("hv: Bundle of zero vectors")
	}
	acc := NewAccumulator(vs[0].dim)
	for _, v := range vs {
		acc.Add(v)
	}
	return acc.Majority(tie)
}

// Accumulator accumulates per-bit set counts across added vectors so that a
// majority (or thresholded) bundle can be extracted without re-walking the
// inputs. It is the right shape for streaming and for weighted bundling.
type Accumulator struct {
	counts []int32
	total  int
	dim    int
}

// NewAccumulator returns an empty accumulator for dimensionality d.
func NewAccumulator(d int) *Accumulator {
	if d <= 0 {
		panic(fmt.Sprintf("hv: invalid accumulator dimensionality %d", d))
	}
	return &Accumulator{counts: make([]int32, d), dim: d}
}

// Count returns the number of vectors added so far (including weights).
func (a *Accumulator) Count() int { return a.total }

// Add accumulates v with weight 1.
func (a *Accumulator) Add(v Vector) { a.AddWeighted(v, 1) }

// AddWeighted accumulates v with an integer weight >= 1; a weight-w add is
// equivalent to adding v w times. It panics on dimension mismatch or
// non-positive weight.
func (a *Accumulator) AddWeighted(v Vector, w int) {
	if v.dim != a.dim {
		panic(fmt.Sprintf("hv: accumulator dim %d, vector dim %d", a.dim, v.dim))
	}
	if w <= 0 {
		panic(fmt.Sprintf("hv: non-positive bundle weight %d", w))
	}
	for wi, word := range v.words {
		base := wi * wordBits
		for word != 0 {
			a.counts[base+bits.TrailingZeros64(word)] += int32(w)
			word &= word - 1
		}
	}
	a.total += w
}

// Majority returns the bundle: bit i is 1 iff more than half of the added
// weight had bit i set, with exact halves resolved by tie. It panics if
// nothing has been added.
func (a *Accumulator) Majority(tie TieBreak) Vector {
	out := New(a.dim)
	a.MajorityInto(tie, out)
	return out
}

// MajorityInto writes the majority bundle into dst without allocating; dst
// is fully overwritten. It panics on dimension mismatch or if nothing has
// been added. This is the destination-passing form used by the
// zero-allocation encode path.
func (a *Accumulator) MajorityInto(tie TieBreak, dst Vector) {
	if a.total == 0 {
		panic("hv: Majority of empty accumulator")
	}
	if dst.dim != a.dim {
		panic(fmt.Sprintf("hv: accumulator dim %d, dst dim %d", a.dim, dst.dim))
	}
	dst.Clear()
	half2 := a.total // compare 2*count against total to stay in integers
	for i, c := range a.counts {
		twice := int(c) * 2
		switch {
		case twice > half2:
			dst.setBit(i)
		case twice == half2 && tie == TieToOne:
			dst.setBit(i)
		}
	}
}

// Reset clears the accumulator for reuse without reallocating.
func (a *Accumulator) Reset() {
	for i := range a.counts {
		a.counts[i] = 0
	}
	a.total = 0
}
