package encode

import (
	"math"
	"testing"

	"hdfe/internal/hv"
	"hdfe/internal/rng"
)

// EncodeInto must be bit-identical to Encode for every encoder, including
// when dst starts dirty.

func TestEncodeIntoMatchesEncode(t *testing.T) {
	r := rng.New(1)
	const dim = 600
	level := NewLevelEncoder(r.Split(), dim, -2, 7)
	binary := NewBinaryEncoder(r.Split(), dim, 0.5)
	constant := NewConstantEncoder(hv.RandBalanced(r.Split(), dim))
	dirty := hv.Rand(r.Split(), dim)

	encoders := []struct {
		name string
		enc  FeatureEncoder
	}{{"level", level}, {"binary", binary}, {"constant", constant}}
	values := []float64{-5, -2, 0, 0.5, 1, 3.14, 7, 9, math.NaN()}
	for _, e := range encoders {
		for _, v := range values {
			want := e.enc.Encode(v)
			dst := dirty.Clone()
			e.enc.EncodeInto(v, dst)
			if !dst.Equal(want) {
				t.Fatalf("%s: EncodeInto(%v) != Encode(%v)", e.name, v, v)
			}
		}
	}
}

// TestNaNContract pins the package's missing-value contract: NaN always
// encodes as the baseline codeword (seed / low), never as high.
func TestNaNContract(t *testing.T) {
	r := rng.New(2)
	const dim = 400
	nan := math.NaN()

	level := NewLevelEncoder(r.Split(), dim, 0, 10)
	if got := level.Flips(nan); got != 0 {
		t.Fatalf("LevelEncoder.Flips(NaN) = %d, want 0", got)
	}
	if !level.Encode(nan).Equal(level.seed) {
		t.Fatal("LevelEncoder.Encode(NaN) != seed")
	}

	binary := NewBinaryEncoder(r.Split(), dim, 0.5)
	if !binary.Encode(nan).Equal(binary.low) {
		t.Fatal("BinaryEncoder.Encode(NaN) != low")
	}
	// Threshold rule: midpoint itself maps low, strictly above maps high.
	if !binary.Encode(0.5).Equal(binary.low) {
		t.Fatal("BinaryEncoder.Encode(midpoint) != low")
	}
	if !binary.Encode(0.5000001).Equal(binary.high) {
		t.Fatal("BinaryEncoder.Encode(>midpoint) != high")
	}

	// A record with a NaN cell encodes identically to the same record with
	// that cell pinned at the encoder baseline — for both combine modes.
	specs := []Spec{{"a", Continuous}, {"b", Binary}, {"c", Continuous}}
	X := [][]float64{{0, 0, 1}, {10, 1, 5}, {5, 0, 3}}
	for _, mode := range []Mode{Majority, BindBundle} {
		cb := Fit(rng.New(7), specs, X, Options{Dim: dim, Mode: mode})
		withNaN := cb.EncodeRecord([]float64{3, nan, nan})
		baseline := cb.EncodeRecord([]float64{3, 0, -math.MaxFloat64})
		if !withNaN.Equal(baseline) {
			t.Fatalf("mode %v: NaN record != baseline record", mode)
		}
	}
}

// TestEncodeRecordIntoMatchesEncodeRecord is the codebook-level
// equivalence check; the 200-record core-level property test lives in
// internal/core.
func TestEncodeRecordIntoMatchesEncodeRecord(t *testing.T) {
	r := rng.New(3)
	specs := []Spec{{"g", Continuous}, {"s", Binary}, {"b", Continuous}, {"k", Continuous}}
	X := [][]float64{{90, 0, 20, 1}, {180, 1, 45, 9}, {120, 1, 30, 4}}
	for _, mode := range []Mode{Majority, BindBundle} {
		cb := Fit(rng.New(11), specs, X, Options{Dim: 500, Mode: mode})
		s := hv.NewScratch(cb.Dim())
		dst := hv.Rand(r, cb.Dim())
		for trial := 0; trial < 25; trial++ {
			row := []float64{r.Float64() * 200, float64(r.Intn(2)), r.Float64() * 50, r.Float64() * 10}
			want := cb.EncodeRecord(row)
			cb.EncodeRecordInto(row, dst, s)
			if !dst.Equal(want) {
				t.Fatalf("mode %v trial %d: EncodeRecordInto != EncodeRecord", mode, trial)
			}
		}
	}
}
