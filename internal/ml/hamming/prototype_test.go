package hamming

import (
	"testing"

	"hdfe/internal/hv"
	"hdfe/internal/rng"
)

func TestPrototypeSeparatesClusters(t *testing.T) {
	vs, y := clusteredVectors(1, 30, 2000, 200)
	p := FitPrototype(vs, y, hv.TieToOne)
	for i, v := range vs {
		if p.Predict(v) != y[i] {
			t.Fatalf("row %d misclassified", i)
		}
	}
}

func TestPrototypeIsBundleOfClass(t *testing.T) {
	vs, y := clusteredVectors(2, 10, 500, 30)
	p := FitPrototype(vs, y, hv.TieToOne)
	var class1 []hv.Vector
	for i, v := range vs {
		if y[i] == 1 {
			class1 = append(class1, v)
		}
	}
	want := hv.Bundle(class1, hv.TieToOne)
	if !p.have[1] || !p.protos[1].Equal(want) {
		t.Fatal("class prototype != majority bundle of class members")
	}
}

func TestPrototypeDenoises(t *testing.T) {
	// The bundled prototype of many noisy copies is closer to the clean
	// prototype than a typical training example is: bundling denoises.
	r := rng.New(3)
	const d = 4000
	clean := hv.Rand(r, d)
	var vs []hv.Vector
	var y []int
	for i := 0; i < 21; i++ {
		v := clean.Clone()
		hv.FlipRandom(v, r, d/4)
		vs = append(vs, v)
		y = append(y, 1)
	}
	// One dummy negative so both classes exist.
	vs = append(vs, hv.Rand(r, d))
	y = append(y, 0)
	p := FitPrototype(vs, y, hv.TieToOne)
	proto := p.protos[1]
	if hv.Hamming(proto, clean) >= hv.Hamming(vs[0], clean) {
		t.Fatalf("prototype at %d from clean, example at %d — bundling failed to denoise",
			hv.Hamming(proto, clean), hv.Hamming(vs[0], clean))
	}
}

func TestPrototypeSingleClass(t *testing.T) {
	r := rng.New(4)
	vs := []hv.Vector{hv.Rand(r, 100), hv.Rand(r, 100)}
	pos := FitPrototype(vs, []int{1, 1}, hv.TieToOne)
	if pos.Predict(hv.Rand(r, 100)) != 1 {
		t.Fatal("positive-only model must predict 1")
	}
	neg := FitPrototype(vs, []int{0, 0}, hv.TieToOne)
	if neg.Predict(hv.Rand(r, 100)) != 0 {
		t.Fatal("negative-only model must predict 0")
	}
	if pos.have[0] {
		t.Fatal("missing class reported present")
	}
}

func TestPrototypePanics(t *testing.T) {
	v := hv.New(8)
	cases := []func(){
		func() { FitPrototype(nil, nil, hv.TieToOne) },
		func() { FitPrototype([]hv.Vector{v}, []int{0, 1}, hv.TieToOne) },
		func() { FitPrototype([]hv.Vector{v}, []int{3}, hv.TieToOne) },
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
