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

func BenchmarkHammingPairD10k(b *testing.B) {
	r := rng.New(1)
	x, y, z := Rand(r, 10000), Rand(r, 10000), Rand(r, 10000)
	b.ReportAllocs()
	var sink int
	for i := 0; i < b.N; i++ {
		dy, dz := HammingPair(x, y, z)
		sink = dy + dz
	}
	_ = sink
}

// BenchmarkBundle8Features bundles one Pima record's worth of codewords
// (need 4 under TieToOne), BenchmarkBundle16Features one Sylhet record's
// (need 8, one folded group plus a pending one).
func BenchmarkBundle8Features(b *testing.B)  { benchBundle(b, 8) }
func BenchmarkBundle16Features(b *testing.B) { benchBundle(b, 16) }

func benchBundle(b *testing.B, n int) {
	vs := makePool(b, n, 10000, 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Bundle(vs, TieToOne)
	}
}
