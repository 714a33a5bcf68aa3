package hamming

import (
	"fmt"

	"hdfe/internal/hv"
)

// Prototype is the classic HDC centroid classifier (Kleyko et al. 2018,
// which the paper cites for its bundling rules): all training hypervectors
// of a class are majority-bundled into one class prototype, and a query is
// labelled by its nearest prototype under Hamming distance. Training is a
// single pass; inference costs two distance evaluations regardless of
// training-set size — the extreme version of the paper's "no model needs
// to be built" argument, traded against the 1-NN model's finer decision
// boundary.
type Prototype struct {
	protos [2]hv.Vector
	have   [2]bool
}

// FitPrototype bundles the labelled hypervectors into per-class
// prototypes. It panics on empty input, mismatched lengths or non-binary
// labels.
func FitPrototype(vs []hv.Vector, y []int, tie hv.TieBreak) *Prototype {
	if len(vs) == 0 {
		panic("hamming: prototype fit with no vectors")
	}
	if len(vs) != len(y) {
		panic(fmt.Sprintf("hamming: %d vectors but %d labels", len(vs), len(y)))
	}
	accs := [2]*hv.Accumulator{
		hv.NewAccumulator(vs[0].Dim()),
		hv.NewAccumulator(vs[0].Dim()),
	}
	p := &Prototype{}
	for i, v := range vs {
		label := y[i]
		if label != 0 && label != 1 {
			panic(fmt.Sprintf("hamming: non-binary label %d at %d", label, i))
		}
		accs[label].Add(v)
		p.have[label] = true
	}
	for c := 0; c < 2; c++ {
		if p.have[c] {
			p.protos[c] = accs[c].Majority(tie)
		}
	}
	return p
}

// Predict labels v by its nearest class prototype (ties to 1).
func (p *Prototype) Predict(v hv.Vector) int {
	switch {
	case !p.have[0]:
		return 1
	case !p.have[1]:
		return 0
	}
	d0 := hv.Hamming(v, p.protos[0])
	d1 := hv.Hamming(v, p.protos[1])
	if d1 <= d0 {
		return 1
	}
	return 0
}
