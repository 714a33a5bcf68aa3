package hv

import (
	"testing"

	"hdfe/internal/rng"
)

func TestBundleMajorityOddCount(t *testing.T) {
	a := FromBits([]uint8{1, 1, 0, 0})
	b := FromBits([]uint8{1, 0, 1, 0})
	c := FromBits([]uint8{0, 1, 1, 0})
	got := Bundle([]Vector{a, b, c}, TieToOne)
	want := FromBits([]uint8{1, 1, 1, 0})
	if !got.Equal(want) {
		t.Fatalf("Bundle = %v, want %v", got, want)
	}
}

// The paper's worked example: A0=1, B0=1, C0=0 → combined bit 0 is 1.
func TestBundlePaperExample(t *testing.T) {
	a := FromBits([]uint8{1})
	b := FromBits([]uint8{1})
	c := FromBits([]uint8{0})
	if got := Bundle([]Vector{a, b, c}, TieToOne); !got.Bit(0) {
		t.Fatal("paper example: majority of {1,1,0} must be 1")
	}
}

func TestBundleTieBreaking(t *testing.T) {
	a := FromBits([]uint8{1, 0})
	b := FromBits([]uint8{0, 1})
	toOne := Bundle([]Vector{a, b}, TieToOne)
	if !toOne.Bit(0) || !toOne.Bit(1) {
		t.Fatalf("TieToOne gave %v, want all ones", toOne)
	}
	toZero := Bundle([]Vector{a, b}, TieToZero)
	if toZero.Bit(0) || toZero.Bit(1) {
		t.Fatalf("TieToZero gave %v, want all zeros", toZero)
	}
}

func TestBundleSingleVectorIsIdentity(t *testing.T) {
	r := rng.New(1)
	v := Rand(r, 333)
	if !Bundle([]Vector{v}, TieToOne).Equal(v) {
		t.Fatal("bundle of one vector must equal it")
	}
}

func TestBundlePanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for empty bundle")
		}
	}()
	Bundle(nil, TieToOne)
}

// Bundling preserves similarity: the bundle of k random vectors is closer
// to each constituent than to an unrelated random vector (the property
// that makes record encoding work).
func TestBundleSimilarToConstituents(t *testing.T) {
	r := rng.New(2)
	const d = 10000
	vs := make([]Vector, 7)
	for i := range vs {
		vs[i] = Rand(r, d)
	}
	bundle := Bundle(vs, TieToOne)
	outsider := Rand(r, d)
	outDist := Hamming(bundle, outsider)
	for i, v := range vs {
		if in := Hamming(bundle, v); in >= outDist {
			t.Fatalf("constituent %d at distance %d, outsider at %d", i, in, outDist)
		}
	}
}

func TestAccumulatorMatchesBundle(t *testing.T) {
	r := rng.New(3)
	vs := make([]Vector, 6)
	for i := range vs {
		vs[i] = Rand(r, 200)
	}
	acc := NewAccumulator(200)
	for _, v := range vs {
		acc.Add(v)
	}
	if !acc.Majority(TieToOne).Equal(Bundle(vs, TieToOne)) {
		t.Fatal("accumulator majority != Bundle")
	}
	if acc.Count() != 6 {
		t.Fatalf("Count = %d", acc.Count())
	}
}

func TestAccumulatorReset(t *testing.T) {
	acc := NewAccumulator(4)
	acc.Add(FromBits([]uint8{1, 1, 1, 1}))
	acc.Reset()
	if acc.Count() != 0 {
		t.Fatal("count after reset")
	}
	acc.Add(FromBits([]uint8{0, 0, 0, 1}))
	if got := acc.Majority(TieToOne); !got.Equal(FromBits([]uint8{0, 0, 0, 1})) {
		t.Fatalf("majority after reset = %v", got)
	}
}

func TestAccumulatorPanics(t *testing.T) {
	cases := []func(){
		func() { NewAccumulator(0) },
		func() { NewAccumulator(4).Majority(TieToOne) },
		func() { NewAccumulator(4).Add(New(5)) },
		func() { NewAccumulator(4).AddRef(New(5)) },
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

// TestAccumulatorMatchesNaiveCount checks the carry-save counts against a
// per-bit recount at every bundle size up to 70 and around the plane
// boundaries 256 and 512, for both tie rules, reusing one accumulator
// across Resets so stale planes would show. The widths are under one
// 256-bit block (130 bits), one block plus a word (257) and 39 blocks
// plus a word (10,000), so the block kernels and the Go tail both count.
func TestAccumulatorMatchesNaiveCount(t *testing.T) {
	r := rng.New(5)
	for _, d := range []int{130, 257, 10000} {
		pool := make([]Vector, 513)
		for i := range pool {
			pool[i] = Rand(r, d)
		}
		counts := make([]int, d)
		acc := NewAccumulator(d)
		dst := New(d)
		sizes := []int{255, 256, 257, 511, 512, 513, 3, 1}
		for n := 1; n <= 70; n++ {
			sizes = append(sizes, n)
		}
		for _, n := range sizes {
			acc.Reset()
			clear(counts)
			for _, v := range pool[:n] {
				acc.Add(v)
				for b := 0; b < d; b++ {
					if v.Bit(b) {
						counts[b]++
					}
				}
			}
			for _, tie := range []TieBreak{TieToOne, TieToZero} {
				acc.MajorityInto(tie, dst)
				for b, c := range counts {
					want := 2*c > n || (2*c == n && tie == TieToOne)
					if dst.Bit(b) != want {
						t.Fatalf("d=%d n=%d tie=%v bit %d: got %v, count %d", d, n, tie, b, dst.Bit(b), c)
					}
				}
			}
		}
	}
}

// TestAccumulatorStreamingReusedBuffer rewrites one buffer before every
// Add, as EncodeVisits does, mixed with AddRef and Next, and takes the
// majority at n = 1…20 and 255–257 without resetting. So a pending group,
// the folded planes and adding on after a majority are all checked
// against a naive recount.
func TestAccumulatorStreamingReusedBuffer(t *testing.T) {
	r := rng.New(8)
	const d = 130
	acc := NewAccumulator(d)
	buf, dst := New(d), New(d)
	counts := make([]int, d)
	for n := 1; n <= 257; n++ {
		Rand(r, d).CopyInto(buf)
		for b := range counts {
			if buf.Bit(b) {
				counts[b]++
			}
		}
		switch n % 3 {
		case 0:
			acc.Add(buf)
		case 1:
			acc.AddRef(buf.Clone())
		default:
			buf.CopyInto(acc.Next())
		}
		if n > 20 && n < 255 {
			continue
		}
		for _, tie := range []TieBreak{TieToOne, TieToZero} {
			acc.MajorityInto(tie, dst)
			for b, c := range counts {
				want := 2*c > n || (2*c == n && tie == TieToOne)
				if dst.Bit(b) != want {
					t.Fatalf("n=%d tie=%v bit %d: got %v, count %d", n, tie, b, dst.Bit(b), c)
				}
			}
		}
	}
	if acc.Count() != 257 {
		t.Fatalf("Count = %d, want 257", acc.Count())
	}
}

func TestAccumulatorReuseZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations; alloc count is meaningless under -race")
	}
	r := rng.New(6)
	const d = 1000
	vs := make([]Vector, 300)
	for i := range vs {
		vs[i] = Rand(r, d)
	}
	acc := NewAccumulator(d)
	dst := New(d)
	allocs := testing.AllocsPerRun(10, func() {
		acc.Reset()
		for _, v := range vs {
			acc.Add(v)
		}
		acc.MajorityInto(TieToOne, dst)
	})
	if allocs != 0 {
		t.Fatalf("reused accumulator allocates %v per run", allocs)
	}
}
