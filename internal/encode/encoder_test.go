package encode

import (
	"math"
	"testing"
	"testing/quick"

	"hdfe/internal/hv"
	"hdfe/internal/rng"
)

const testDim = 10000

func TestLevelEncoderEndpoints(t *testing.T) {
	r := rng.New(1)
	e := NewLevelEncoder(r, testDim, 0, 100)
	lo := e.Encode(0)
	hi := e.Encode(100)
	if !lo.Equal(e.seed) {
		t.Fatal("Encode(min) != seed")
	}
	if d := hv.Hamming(lo, hi); d != testDim/2 {
		t.Fatalf("min/max distance = %d, want %d (orthogonal)", d, testDim/2)
	}
}

func TestLevelEncoderBelowMinClamps(t *testing.T) {
	r := rng.New(2)
	e := NewLevelEncoder(r, testDim, 10, 20)
	// "A lesser value could be found in new data that hasn't been seen":
	// the seed represents every value <= min.
	if !e.Encode(-5).Equal(e.Encode(10)) {
		t.Fatal("value below min did not map to seed")
	}
	if !e.Encode(25).Equal(e.Encode(20)) {
		t.Fatal("value above max did not clamp to max vector")
	}
}

func TestLevelEncoderLinearity(t *testing.T) {
	// Hamming distance between encoded values is exactly |x1 - x2| flips,
	// i.e. linear in the value difference.
	r := rng.New(3)
	e := NewLevelEncoder(r, testDim, 0, 1)
	vals := []float64{0, 0.1, 0.25, 0.5, 0.77, 1}
	for _, a := range vals {
		for _, b := range vals {
			want := int(math.Abs(float64(e.Flips(a) - e.Flips(b))))
			got := hv.Hamming(e.Encode(a), e.Encode(b))
			if got != want {
				t.Fatalf("d(enc(%v),enc(%v)) = %d, want %d", a, b, got, want)
			}
		}
	}
}

func TestLevelEncoderProximityOrdering(t *testing.T) {
	// The paper's age intuition: 45 is closer to 50 than to 70.
	r := rng.New(4)
	e := NewLevelEncoder(r, testDim, 21, 81)
	d4550 := hv.Hamming(e.Encode(45), e.Encode(50))
	d4570 := hv.Hamming(e.Encode(45), e.Encode(70))
	if d4550 >= d4570 {
		t.Fatalf("d(45,50)=%d not < d(45,70)=%d", d4550, d4570)
	}
}

func TestLevelEncoderFlipsFormula(t *testing.T) {
	r := rng.New(5)
	e := NewLevelEncoder(r, testDim, 0, 200)
	// x = D*(t-min)/(2*(max-min)): t=100 -> 10000*100/400 = 2500.
	if x := e.Flips(100); x != 2500 {
		t.Fatalf("Flips(100) = %d, want 2500", x)
	}
	if x := e.Flips(200); x != testDim/2 {
		t.Fatalf("Flips(max) = %d, want %d", x, testDim/2)
	}
	if x := e.Flips(0); x != 0 {
		t.Fatalf("Flips(min) = %d, want 0", x)
	}
}

func TestLevelEncoderDensityStable(t *testing.T) {
	r := rng.New(6)
	e := NewLevelEncoder(r, testDim, 0, 10)
	for _, v := range []float64{0, 2.5, 5, 7.5, 10} {
		enc := e.Encode(v)
		if diff := enc.OnesCount() - testDim/2; diff < -1 || diff > 1 {
			t.Fatalf("Encode(%v) density shifted by %d bits", v, diff)
		}
	}
}

func TestLevelEncoderDeterministic(t *testing.T) {
	a := NewLevelEncoder(rng.New(7), 1000, 0, 1)
	b := NewLevelEncoder(rng.New(7), 1000, 0, 1)
	if !a.Encode(0.3).Equal(b.Encode(0.3)) {
		t.Fatal("same-seed encoders disagree")
	}
	c := NewLevelEncoder(rng.New(8), 1000, 0, 1)
	if a.Encode(0.3).Equal(c.Encode(0.3)) {
		t.Fatal("different-seed encoders agree")
	}
}

func TestLevelEncoderDegenerateRange(t *testing.T) {
	r := rng.New(9)
	e := NewLevelEncoder(r, 1000, 5, 5)
	if !e.Encode(5).Equal(e.Encode(123)) {
		t.Fatal("degenerate-range encoder not constant")
	}
}

func TestLevelEncoderPanics(t *testing.T) {
	cases := []func(){
		func() { NewLevelEncoder(rng.New(1), 0, 0, 1) },
		func() { NewLevelEncoder(rng.New(1), 100, 2, 1) },
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

func TestLevelEncoderRangeAccessor(t *testing.T) {
	e := NewLevelEncoder(rng.New(10), 100, -3, 7)
	lo, hi := e.Range()
	if lo != -3 || hi != 7 {
		t.Fatalf("Range = (%v,%v)", lo, hi)
	}
}

func TestPropertyLevelMonotoneDistanceFromSeed(t *testing.T) {
	r := rng.New(11)
	e := NewLevelEncoder(r, 2000, 0, 1)
	err := quick.Check(func(a, b float64) bool {
		a = math.Abs(math.Mod(a, 1))
		b = math.Abs(math.Mod(b, 1))
		if a > b {
			a, b = b, a
		}
		seed := e.seed
		da := hv.Hamming(seed, e.Encode(a))
		db := hv.Hamming(seed, e.Encode(b))
		return da <= db
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBinaryEncoderOrthogonalPair(t *testing.T) {
	r := rng.New(12)
	e := NewBinaryEncoder(r, testDim, 0.5)
	if d := hv.Hamming(e.low, e.high); d != testDim/2 {
		t.Fatalf("low/high distance = %d, want %d", d, testDim/2)
	}
}

func TestBinaryEncoderMidpoint(t *testing.T) {
	r := rng.New(13)
	// Sylhet sex coding: 1 = male, 2 = female; midpoint 1.5.
	e := NewBinaryEncoder(r, 1000, 1.5)
	if !e.Encode(1).Equal(e.low) {
		t.Fatal("Encode(1) != low")
	}
	if !e.Encode(2).Equal(e.high) {
		t.Fatal("Encode(2) != high")
	}
	// Exactly at midpoint maps low.
	if !e.Encode(1.5).Equal(e.low) {
		t.Fatal("Encode(midpoint) != low")
	}
	if e.midpoint != 1.5 {
		t.Fatalf("midpoint = %v", e.midpoint)
	}
}

func TestConstantEncoder(t *testing.T) {
	v := hv.RandBalanced(rng.New(14), 100)
	e := NewConstantEncoder(v)
	if !e.Encode(1).Equal(v) || !e.Encode(-99).Equal(v) {
		t.Fatal("constant encoder varies")
	}
	// Returned vector is a copy: mutating it must not corrupt the encoder.
	got := e.Encode(0)
	got.FlipBit(0)
	if !e.Encode(0).Equal(v) {
		t.Fatal("Encode result aliases encoder state")
	}
}
