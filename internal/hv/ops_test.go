package hv

import (
	"math"
	"testing"
	"testing/quick"

	"hdfe/internal/rng"
)

func TestHammingBasics(t *testing.T) {
	a := FromBits([]uint8{1, 0, 1, 0})
	b := FromBits([]uint8{1, 1, 0, 0})
	if d := Hamming(a, b); d != 2 {
		t.Fatalf("Hamming = %d, want 2", d)
	}
	if d := Hamming(a, a); d != 0 {
		t.Fatalf("self distance = %d", d)
	}
	if d := Hamming(a, FromBits([]uint8{0, 1, 0, 1})); d != a.Dim() {
		t.Fatalf("complement distance = %d, want %d", d, a.Dim())
	}
}

func TestHammingPanicsOnDimMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on dim mismatch")
		}
	}()
	Hamming(New(10), New(11))
}

// Hamming distance is a metric: symmetric, zero iff equal, triangle
// inequality.
func TestHammingMetricProperties(t *testing.T) {
	r := rng.New(1)
	const d = 512
	for trial := 0; trial < 50; trial++ {
		a, b, c := Rand(r, d), Rand(r, d), Rand(r, d)
		ab, ba := Hamming(a, b), Hamming(b, a)
		if ab != ba {
			t.Fatalf("not symmetric: %d != %d", ab, ba)
		}
		if Hamming(a, a) != 0 {
			t.Fatal("d(a,a) != 0")
		}
		if ab == 0 && !a.Equal(b) {
			t.Fatal("zero distance between unequal vectors")
		}
		if ac, bc := Hamming(a, c), Hamming(b, c); ab > ac+bc {
			t.Fatalf("triangle violated: d(a,b)=%d > %d+%d", ab, ac, bc)
		}
	}
}

// xor returns a ^ b through XorInPlace on a copy of a.
func xor(a, b Vector) Vector {
	out := a.Clone()
	XorInPlace(out, b)
	return out
}

// permute returns v rotated by k through PermuteInto.
func permute(v Vector, k int) Vector {
	out := New(v.Dim())
	PermuteInto(out, v, k)
	return out
}

// XOR distance identity: Hamming(a,b) == OnesCount(a^b); binding with the
// same vector preserves distances.
func TestXorPreservesDistance(t *testing.T) {
	r := rng.New(2)
	const d = 300
	for trial := 0; trial < 20; trial++ {
		a, b, key := Rand(r, d), Rand(r, d), Rand(r, d)
		if Hamming(a, b) != xor(a, b).OnesCount() {
			t.Fatal("Hamming != popcount of XOR")
		}
		if Hamming(xor(a, key), xor(b, key)) != Hamming(a, b) {
			t.Fatal("binding did not preserve distance")
		}
	}
}

func TestXorSelfInverse(t *testing.T) {
	r := rng.New(3)
	a, key := Rand(r, 200), Rand(r, 200)
	if !xor(xor(a, key), key).Equal(a) {
		t.Fatal("xor not self-inverse")
	}
}

// XorInPlace must agree bit by bit with the definition of XOR, including
// in the partial last word.
func TestXorInPlaceMatchesXor(t *testing.T) {
	r := rng.New(4)
	a, b := Rand(r, 129), Rand(r, 129)
	got := a.Clone()
	XorInPlace(got, b)
	for i := 0; i < a.Dim(); i++ {
		if want := a.Bit(i) != b.Bit(i); got.Bit(i) != want {
			t.Fatalf("bit %d = %v, want %v", i, got.Bit(i), want)
		}
	}
	if got.OnesCount() != Hamming(a, b) {
		t.Fatal("XorInPlace set bits beyond the dimension")
	}
}

func TestPermutePreservesOnesAndDistance(t *testing.T) {
	r := rng.New(6)
	a, b := Rand(r, 101), Rand(r, 101)
	for _, k := range []int{0, 1, 7, 100, 101, -3, 205} {
		pa, pb := permute(a, k), permute(b, k)
		if pa.OnesCount() != a.OnesCount() {
			t.Fatalf("PermuteInto(%d) changed ones count", k)
		}
		if Hamming(pa, pb) != Hamming(a, b) {
			t.Fatalf("PermuteInto(%d) changed distance", k)
		}
	}
}

func TestPermuteRoundTrip(t *testing.T) {
	r := rng.New(7)
	a := Rand(r, 97)
	if !permute(permute(a, 13), -13).Equal(a) {
		t.Fatal("PermuteInto(k) then PermuteInto(-k) != identity")
	}
	if !permute(a, 97).Equal(a) {
		t.Fatal("PermuteInto(dim) != identity")
	}
}

func TestFlipRandomExactDistance(t *testing.T) {
	r := rng.New(8)
	orig := Rand(r, 500)
	for _, count := range []int{0, 1, 250, 500} {
		v := orig.Clone()
		FlipRandom(v, r, count)
		if d := Hamming(orig, v); d != count {
			t.Fatalf("FlipRandom(%d) produced distance %d", count, d)
		}
	}
}

func TestFlipBalancedDistanceAndDensity(t *testing.T) {
	r := rng.New(9)
	const d = 1000
	orig := RandBalanced(r, d)
	for _, count := range []int{0, 1, 2, 101, 500} {
		v := orig.Clone()
		FlipBalanced(v, r, count)
		if got := Hamming(orig, v); got != count {
			t.Fatalf("FlipBalanced(%d) produced distance %d", count, got)
		}
		if diff := v.OnesCount() - orig.OnesCount(); diff < -1 || diff > 1 {
			t.Fatalf("FlipBalanced(%d) shifted density by %d bits", count, diff)
		}
	}
}

func TestFlipBalancedPanicsWhenImpossible(t *testing.T) {
	r := rng.New(10)
	v := New(10) // all zeros: cannot flip any ones
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic flipping ones of all-zero vector")
		}
	}()
	FlipBalanced(v, r, 4)
}

func TestOrthogonal(t *testing.T) {
	r := rng.New(11)
	const d = 10000
	seed := RandBalanced(r, d)
	orth := Orthogonal(seed, r)
	if got := Hamming(seed, orth); got != d/2 {
		t.Fatalf("Orthogonal distance = %d, want %d", got, d/2)
	}
	if math.Abs(orth.Density()-0.5) > 0.001 {
		t.Fatalf("Orthogonal density = %v", orth.Density())
	}
	if !seed.Equal(seed.Clone()) {
		t.Fatal("Orthogonal mutated its input")
	}
}

func TestSimilarityAndNormalizedHamming(t *testing.T) {
	a := FromBits([]uint8{1, 1, 0, 0})
	b := FromBits([]uint8{1, 0, 0, 1})
	if nh := NormalizedHamming(a, b); nh != 0.5 {
		t.Fatalf("NormalizedHamming = %v", nh)
	}
	if s := Similarity(a, b); s != 0.5 {
		t.Fatalf("Similarity = %v", s)
	}
	if s := Similarity(a, a); s != 1 {
		t.Fatalf("self similarity = %v", s)
	}
}

// Kanerva's concentration property: independent random 10k-bit vectors
// cluster tightly around normalized distance 0.5 (§II of the paper).
func TestConcentrationOfDistance(t *testing.T) {
	r := rng.New(12)
	const d = 10000
	ref := Rand(r, d)
	for i := 0; i < 30; i++ {
		nh := NormalizedHamming(ref, Rand(r, d))
		// 0.47..0.53 is ~6 sigma for D=10k (sigma = 0.005).
		if nh < 0.47 || nh > 0.53 {
			t.Fatalf("random pair at normalized distance %v, outside concentration band", nh)
		}
	}
}

func TestPropertyXorCommutes(t *testing.T) {
	r := rng.New(13)
	err := quick.Check(func(seedA, seedB uint64) bool {
		ra, rb := rng.New(seedA), rng.New(seedB)
		a, b := Rand(ra, 192), Rand(rb, 192)
		return xor(a, b).Equal(xor(b, a))
	}, &quick.Config{MaxCount: 50, Rand: nil})
	if err != nil {
		t.Fatal(err)
	}
	_ = r
}
