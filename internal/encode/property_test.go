package encode

import (
	"math"
	"sort"
	"testing"

	"hdfe/internal/hv"
	"hdfe/internal/rng"
)

// TestLevelEncoderMonotonicity property-checks the level encoder's core
// geometric promise (§II.B): the Hamming distance between two encoded
// values equals the difference of their flip counts exactly, so a larger
// numeric gap never maps to a smaller distance — monotone up to the
// round-to-flip quantization.
func TestLevelEncoderMonotonicity(t *testing.T) {
	r := rng.New(1234)
	for _, dim := range []int{100, 256, 1000} {
		for enc := 0; enc < 5; enc++ {
			min := r.NormFloat64() * 50
			max := min + 1 + r.Float64()*200
			e := NewLevelEncoder(r.Split(), dim, min, max)

			// Random values spanning below-min through above-max, so the
			// clamp regions are exercised alongside the linear band.
			vals := make([]float64, 40)
			for i := range vals {
				vals[i] = min + (r.Float64()*1.4-0.2)*(max-min)
			}
			sort.Float64s(vals)

			encoded := make([]hv.Vector, len(vals))
			flips := make([]int, len(vals))
			for i, v := range vals {
				encoded[i] = e.Encode(v)
				flips[i] = e.Flips(v)
			}

			// Flip counts are monotone non-decreasing in the value.
			for i := 1; i < len(vals); i++ {
				if flips[i] < flips[i-1] {
					t.Fatalf("dim %d: Flips(%v)=%d < Flips(%v)=%d", dim, vals[i], flips[i], vals[i-1], flips[i-1])
				}
			}

			// Pairwise: distance is exactly the flip-count difference, so
			// |v1-v2| larger  =>  distance non-decreasing (quantization
			// collapses ties, never inverts order).
			for i := range vals {
				for j := i; j < len(vals); j++ {
					want := flips[j] - flips[i]
					if got := hv.Hamming(encoded[i], encoded[j]); got != want {
						t.Fatalf("dim %d: H(E(%v),E(%v)) = %d, want flip diff %d",
							dim, vals[i], vals[j], got, want)
					}
				}
			}

			// Distances from the min anchor are monotone in the value.
			anchor := e.Encode(min)
			prev := -1
			for i, v := range vals {
				d := hv.Hamming(anchor, encoded[i])
				if d < prev {
					t.Fatalf("dim %d: distance from min dropped at %v: %d < %d", dim, v, d, prev)
				}
				prev = d
			}
		}
	}
}

// TestLevelEncoderClampBounds pins the encoding's boundary geometry:
// below-min is the seed, above-max is the orthogonal max codeword, and
// NaN (missing) encodes as the baseline seed per the package contract.
// The far values include ones whose flip count is past the int range, or
// overflows to ±Inf, before it is clamped.
func TestLevelEncoderClampBounds(t *testing.T) {
	r := rng.New(9)
	const dim = 512
	e := NewLevelEncoder(r, dim, -3, 17)

	seed := e.Encode(-3)
	for _, below := range []float64{-1e12, -1e300, -math.MaxFloat64, math.Inf(-1)} {
		if hv.Hamming(seed, e.Encode(below)) != 0 {
			t.Errorf("far-below-min value %g does not encode as the seed", below)
		}
	}
	if hv.Hamming(seed, e.Encode(math.NaN())) != 0 {
		t.Error("NaN does not encode as the baseline seed")
	}
	top := e.Encode(17)
	for _, above := range []float64{1e12, 1e300, math.MaxFloat64, math.Inf(1)} {
		if hv.Hamming(top, e.Encode(above)) != 0 {
			t.Errorf("far-above-max value %g does not encode as the max codeword", above)
		}
	}
	if got := hv.Hamming(seed, top); got != dim/2 {
		t.Errorf("H(min, max) = %d, want D/2 = %d (orthogonal)", got, dim/2)
	}
}
