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

func TestDistances(t *testing.T) {
	vs := makePool(t, 31, 129, 4)
	q := vs[5]
	ds := Distances(q, vs, nil)
	for i := range vs {
		if ds[i] != Hamming(q, vs[i]) {
			t.Fatalf("Distances[%d] = %d, want %d", i, ds[i], Hamming(q, vs[i]))
		}
	}
	// Buffer reuse path.
	buf := make([]int, 31)
	ds2 := Distances(q, vs, buf)
	if &ds2[0] != &buf[0] {
		t.Fatal("Distances did not reuse provided buffer")
	}
}

func TestNearestFindsSelfWithoutExclude(t *testing.T) {
	vs := makePool(t, 12, 300, 5)
	idx, dist := Nearest(vs[7], vs, -1)
	if idx != 7 || dist != 0 {
		t.Fatalf("Nearest = (%d,%d), want (7,0)", idx, dist)
	}
}

func TestNearestExcludesSelf(t *testing.T) {
	vs := makePool(t, 12, 300, 6)
	idx, dist := Nearest(vs[7], vs, 7)
	if idx == 7 {
		t.Fatal("excluded index returned")
	}
	if dist != Hamming(vs[7], vs[idx]) {
		t.Fatal("returned distance mismatch")
	}
	// It must actually be the minimum over the rest.
	for i, v := range vs {
		if i == 7 {
			continue
		}
		if d := Hamming(vs[7], v); d < dist {
			t.Fatalf("found closer candidate %d at %d < %d", i, d, dist)
		}
	}
}

func TestNearestTieBreaksToLowestIndex(t *testing.T) {
	a := FromBits([]uint8{0, 0, 0, 0})
	b := FromBits([]uint8{1, 0, 0, 0})
	c := FromBits([]uint8{0, 1, 0, 0})
	idx, dist := Nearest(a, []Vector{b, c}, -1)
	if idx != 0 || dist != 1 {
		t.Fatalf("tie broke to (%d,%d), want (0,1)", idx, dist)
	}
}

func TestNearestPanicsWithNoCandidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	v := New(8)
	Nearest(v, []Vector{v}, 0)
}

func TestNearestK(t *testing.T) {
	vs := makePool(t, 20, 400, 7)
	q := vs[3]
	got := NearestK(q, vs, 3, 5)
	if len(got) != 5 {
		t.Fatalf("NearestK returned %d", len(got))
	}
	// Ascending distance, none excluded.
	prev := -1
	for _, idx := range got {
		if idx == 3 {
			t.Fatal("excluded index in NearestK")
		}
		d := Hamming(q, vs[idx])
		if d < prev {
			t.Fatal("NearestK not sorted by distance")
		}
		prev = d
	}
	// The k-th smallest must not exceed any unreturned candidate.
	inSet := map[int]bool{}
	for _, idx := range got {
		inSet[idx] = true
	}
	kth := Hamming(q, vs[got[4]])
	for i, v := range vs {
		if i == 3 || inSet[i] {
			continue
		}
		if Hamming(q, v) < kth {
			t.Fatalf("candidate %d closer than returned k-th", i)
		}
	}
}

func TestNearestKClampsToPool(t *testing.T) {
	vs := makePool(t, 4, 64, 8)
	if got := NearestK(vs[0], vs, 0, 99); len(got) != 3 {
		t.Fatalf("NearestK clamp = %d, want 3", len(got))
	}
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
