package hv

import (
	"testing"

	"hdfe/internal/rng"
)

func makePool(t testing.TB, n, d int, seed uint64) []Vector {
	t.Helper()
	r := rng.New(seed)
	vs := make([]Vector, n)
	for i := range vs {
		vs[i] = Rand(r, d)
	}
	return vs
}

func BenchmarkHammingD10k(b *testing.B) {
	r := rng.New(1)
	x, y := Rand(r, 10000), Rand(r, 10000)
	b.ReportAllocs()
	var sink int
	for i := 0; i < b.N; i++ {
		sink = Hamming(x, y)
	}
	_ = sink
}

func BenchmarkBundle8Features(b *testing.B) {
	vs := makePool(b, 8, 10000, 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Bundle(vs, TieToOne)
	}
}
