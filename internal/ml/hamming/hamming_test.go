package hamming

import (
	"testing"

	"hdfe/internal/hv"
	"hdfe/internal/rng"
)

// clusteredVectors builds two Hamming-separated clusters: class 0 vectors
// are small perturbations of one prototype, class 1 of another.
func clusteredVectors(seed uint64, perClass, dim, noise int) ([]hv.Vector, []int) {
	r := rng.New(seed)
	protoA := hv.Rand(r, dim)
	protoB := hv.Rand(r, dim)
	var vs []hv.Vector
	var y []int
	for i := 0; i < perClass; i++ {
		a := protoA.Clone()
		hv.FlipRandom(a, r, noise)
		vs = append(vs, a)
		y = append(y, 0)
		b := protoB.Clone()
		hv.FlipRandom(b, r, noise)
		vs = append(vs, b)
		y = append(y, 1)
	}
	return vs, y
}

func TestLeaveOneOutOnSeparatedClusters(t *testing.T) {
	vs, y := clusteredVectors(4, 30, 2000, 100)
	c := LeaveOneOut(vs, y)
	if c.Total() != len(vs) {
		t.Fatalf("LOO total %d", c.Total())
	}
	if acc := c.Accuracy(); acc != 1 {
		t.Fatalf("LOO accuracy %v on well-separated clusters", acc)
	}
}

func TestLeaveOneOutMatchesNaive(t *testing.T) {
	r := rng.New(5)
	var vs []hv.Vector
	var y []int
	for i := 0; i < 25; i++ {
		vs = append(vs, hv.Rand(r, 300))
		y = append(y, i%2)
	}
	fast := LeaveOneOut(vs, y)
	// Naive re-implementation: the first nearest other record wins.
	pred := make([]int, len(vs))
	for i, v := range vs {
		best := -1
		for j, u := range vs {
			if j != i && (best == -1 || hv.Hamming(v, u) < hv.Hamming(v, vs[best])) {
				best = j
			}
		}
		pred[i] = y[best]
	}
	var naiveCorrect, fastCorrect int
	for i := range pred {
		if pred[i] == y[i] {
			naiveCorrect++
		}
	}
	fastCorrect = fast.TP + fast.TN
	if naiveCorrect != fastCorrect {
		t.Fatalf("fast LOO %d correct, naive %d", fastCorrect, naiveCorrect)
	}
}

func TestLeaveOneOutPanics(t *testing.T) {
	v := hv.New(10)
	cases := []func(){
		func() { LeaveOneOut([]hv.Vector{v, v}, []int{0}) },
		func() { LeaveOneOut([]hv.Vector{v}, []int{0}) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}
