package hv

import (
	"math"
	"testing"
	"testing/quick"

	"hdfe/internal/rng"
)

func TestNewIsZero(t *testing.T) {
	for _, d := range []int{1, 63, 64, 65, 100, 10000} {
		v := New(d)
		if v.Dim() != d {
			t.Fatalf("Dim = %d, want %d", v.Dim(), d)
		}
		if v.OnesCount() != 0 {
			t.Fatalf("New(%d) has %d ones", d, v.OnesCount())
		}
	}
}

func TestNewPanicsOnBadDim(t *testing.T) {
	for _, d := range []int{0, -1, -64} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", d)
				}
			}()
			New(d)
		}()
	}
}

func TestSetGetFlipBit(t *testing.T) {
	v := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if v.Bit(i) {
			t.Fatalf("fresh vector has bit %d set", i)
		}
		v.SetBit(i, true)
		if !v.Bit(i) {
			t.Fatalf("bit %d not set after SetBit", i)
		}
		v.FlipBit(i)
		if v.Bit(i) {
			t.Fatalf("bit %d still set after FlipBit", i)
		}
		v.FlipBit(i)
		if !v.Bit(i) {
			t.Fatalf("bit %d not set after double FlipBit", i)
		}
		v.SetBit(i, false)
		if v.Bit(i) {
			t.Fatalf("bit %d still set after SetBit(false)", i)
		}
	}
	// FlipBits flips a whole list at once; a position listed twice flips
	// back.
	v.FlipBits([]int32{0, 1, 63, 64, 65, 127, 128, 129, 64})
	want := []uint64{1<<63 | 3, 1<<63 | 2, 3}
	for i, w := range v.Words() {
		if w != want[i] {
			t.Fatalf("word %d after FlipBits = %#x, want %#x", i, w, want[i])
		}
	}
}

func TestBitIndexPanics(t *testing.T) {
	v := New(10)
	for _, i := range []int{-1, 10, 11} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Bit(%d) did not panic", i)
				}
			}()
			v.Bit(i)
		}()
	}
}

func TestRandDensityNearHalf(t *testing.T) {
	r := rng.New(1)
	v := Rand(r, 10000)
	if d := v.Density(); math.Abs(d-0.5) > 0.03 {
		t.Fatalf("Rand density = %v, want ~0.5", d)
	}
}

func TestRandMasksTail(t *testing.T) {
	r := rng.New(2)
	// dim 70: last word has 6 valid bits; the rest must be zero or
	// OnesCount would overcount.
	for trial := 0; trial < 20; trial++ {
		v := Rand(r, 70)
		if v.OnesCount() > 70 {
			t.Fatalf("OnesCount %d > dim 70: tail not masked", v.OnesCount())
		}
	}
}

func TestRandBalancedExactDensity(t *testing.T) {
	r := rng.New(3)
	for _, d := range []int{2, 10, 64, 100, 10000, 9999} {
		v := RandBalanced(r, d)
		if got := v.OnesCount(); got != d/2 {
			t.Fatalf("RandBalanced(%d) has %d ones, want %d", d, got, d/2)
		}
	}
}

func TestRandBalancedVaries(t *testing.T) {
	r := rng.New(4)
	a := RandBalanced(r, 1000)
	b := RandBalanced(r, 1000)
	if a.Equal(b) {
		t.Fatal("two RandBalanced draws identical")
	}
	// Independent balanced vectors are ~orthogonal.
	if nh := NormalizedHamming(a, b); math.Abs(nh-0.5) > 0.1 {
		t.Fatalf("independent balanced vectors at normalized distance %v, want ~0.5", nh)
	}
}

func TestFromBitsRoundTrip(t *testing.T) {
	bits := []uint8{1, 0, 0, 1, 1, 0, 1, 0, 0, 0, 1}
	v := FromBits(bits)
	if v.Dim() != len(bits) {
		t.Fatalf("dim %d", v.Dim())
	}
	for i, b := range bits {
		if v.Bit(i) != (b != 0) {
			t.Fatalf("bit %d mismatch", i)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	r := rng.New(6)
	a := Rand(r, 100)
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("clone differs")
	}
	b.FlipBit(0)
	if a.Equal(b) {
		t.Fatal("mutating clone changed original")
	}
}

// TestOnesZerosPartition requires Ones and Zeros to list every position
// once, each on its side and in ascending order, at widths that fill the
// last word and widths that leave tail bits unused.
func TestOnesZerosPartition(t *testing.T) {
	r := rng.New(7)
	for _, dim := range []int{1, 63, 64, 65, 257, 10000} {
		v := Rand(r, dim)
		ones, zeros := v.Ones(), v.Zeros()
		if len(ones)+len(zeros) != v.Dim() {
			t.Fatalf("dim %d: ones %d + zeros %d != dim", dim, len(ones), len(zeros))
		}
		for k, i := range ones {
			if !v.Bit(i) {
				t.Fatalf("dim %d: Ones() listed clear bit %d", dim, i)
			}
			if k > 0 && i <= ones[k-1] {
				t.Fatalf("dim %d: Ones() lists %d after %d", dim, i, ones[k-1])
			}
		}
		for k, i := range zeros {
			if v.Bit(i) {
				t.Fatalf("dim %d: Zeros() listed set bit %d", dim, i)
			}
			if k > 0 && i <= zeros[k-1] {
				t.Fatalf("dim %d: Zeros() lists %d after %d", dim, i, zeros[k-1])
			}
		}
	}
}

func TestFloats(t *testing.T) {
	v := FromBits([]uint8{1, 0, 1, 1, 0})
	f := v.Floats(nil)
	want := []float64{1, 0, 1, 1, 0}
	for i := range want {
		if f[i] != want[i] {
			t.Fatalf("Floats[%d] = %v, want %v", i, f[i], want[i])
		}
	}
	// Reuse path must overwrite stale data.
	stale := []float64{9, 9, 9, 9, 9}
	f2 := v.Floats(stale)
	for i := range want {
		if f2[i] != want[i] {
			t.Fatalf("Floats reuse [%d] = %v, want %v", i, f2[i], want[i])
		}
	}
}

func TestStringSmallAndLarge(t *testing.T) {
	v := FromBits([]uint8{1, 0, 1})
	if v.String() != "101" {
		t.Fatalf("String = %q", v.String())
	}
	big := New(10000)
	if big.String() == "" {
		t.Fatal("large String empty")
	}
}

func TestHexLength(t *testing.T) {
	v := New(130) // 3 words
	if got := len(v.Hex()); got != 3*16 {
		t.Fatalf("Hex length %d, want 48", got)
	}
}

func TestEqualDifferentDims(t *testing.T) {
	if New(10).Equal(New(11)) {
		t.Fatal("vectors of different dims reported equal")
	}
}

func TestPropertyFromBitsOnesCount(t *testing.T) {
	err := quick.Check(func(raw []bool) bool {
		if len(raw) == 0 {
			return true
		}
		bits := make([]uint8, len(raw))
		want := 0
		for i, b := range raw {
			if b {
				bits[i] = 1
				want++
			}
		}
		return FromBits(bits).OnesCount() == want
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}
