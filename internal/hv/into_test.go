package hv

import (
	"testing"

	"hdfe/internal/rng"
)

// Every *Into operation must fully overwrite its destination and match
// the operation's definition (or its value-returning counterpart).

func TestCopyIntoMatchesClone(t *testing.T) {
	r := rng.New(1)
	for _, d := range []int{1, 63, 64, 65, 1000} {
		v := Rand(r, d)
		dst := Rand(r, d) // pre-dirtied: CopyInto must fully overwrite
		v.CopyInto(dst)
		if !dst.Equal(v) {
			t.Fatalf("d=%d: CopyInto != src", d)
		}
	}
}

func TestCopyIntoPanicsOnDimMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on dim mismatch")
		}
	}()
	New(10).CopyInto(New(11))
}

func TestClear(t *testing.T) {
	v := Rand(rng.New(2), 300)
	v.Clear()
	if v.OnesCount() != 0 {
		t.Fatalf("Clear left %d ones", v.OnesCount())
	}
}

func TestPermuteIntoMatchesPermute(t *testing.T) {
	r := rng.New(4)
	const d = 500
	v := Rand(r, d)
	for _, k := range []int{0, 1, 63, 64, 65, d - 1, d, d + 7, -3} {
		dst := Rand(r, d) // pre-dirtied: PermuteInto must fully overwrite
		PermuteInto(dst, v, k)
		for i := 0; i < d; i++ {
			src := ((i-k)%d + d) % d
			if dst.Bit(i) != v.Bit(src) {
				t.Fatalf("k=%d: bit %d = %v, want bit %d of the input", k, i, dst.Bit(i), src)
			}
		}
	}
}

func TestPermuteIntoRejectsAliasing(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on aliased PermuteInto")
		}
	}()
	v := Rand(rng.New(5), 64)
	PermuteInto(v, v, 3)
}

func TestMajorityIntoMatchesMajority(t *testing.T) {
	r := rng.New(6)
	const d = 320
	for _, n := range []int{1, 2, 3, 8, 9} {
		for _, tie := range []TieBreak{TieToOne, TieToZero} {
			acc := NewAccumulator(d)
			for i := 0; i < n; i++ {
				acc.Add(Rand(r, d))
			}
			want := acc.Majority(tie)
			dst := Rand(r, d)
			acc.MajorityInto(tie, dst)
			if !dst.Equal(want) {
				t.Fatalf("n=%d tie=%v: MajorityInto != Majority", n, tie)
			}
		}
	}
}

func TestScratchShapesAndPool(t *testing.T) {
	s := NewScratch(200)
	if s.Dim() != 200 || s.Vec().Dim() != 200 || s.Rec().Dim() != 200 {
		t.Fatal("scratch buffers not sized to dim")
	}
	s.Acc().Add(s.Vec()) // panics unless the accumulator is sized to dim
	p := GetScratch(200)
	if p.Dim() != 200 {
		t.Fatalf("pooled scratch dim %d", p.Dim())
	}
	PutScratch(p)
	PutScratch(nil) // no-op
}

func TestScratchZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector randomizes sync.Pool recycling; alloc count is meaningless under -race")
	}
	const d = 1000
	// Warm the pool so the measured region only recycles.
	PutScratch(NewScratch(d))
	allocs := testing.AllocsPerRun(100, func() {
		s := GetScratch(d)
		s.Vec().Clear()
		PutScratch(s)
	})
	if allocs != 0 {
		t.Fatalf("Get/PutScratch steady state allocates %v per run", allocs)
	}
}
