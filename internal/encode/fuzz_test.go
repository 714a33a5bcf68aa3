package encode

import (
	"math"
	"testing"

	"hdfe/internal/hv"
	"hdfe/internal/rng"
)

// fuzzCodebooks fits one codebook per combination mode over a schema that
// exercises every encoder type: a level encoder (continuous with range), a
// binary encoder, and a constant encoder (degenerate continuous column).
func fuzzCodebooks() []*Codebook {
	specs := []Spec{
		{Name: "level", Kind: Continuous},
		{Name: "binary", Kind: Binary},
		{Name: "const", Kind: Continuous},
	}
	X := [][]float64{{-3, 0, 5}, {7, 1, 5}, {2.5, 1, 5}}
	var cbs []*Codebook
	for _, mode := range []Mode{Majority, BindBundle} {
		cbs = append(cbs, Fit(rng.New(11), specs, X, Options{Dim: 192, Mode: mode}))
	}
	return cbs
}

// FuzzEncodeRecordInto feeds arbitrary float bit patterns — including
// NaN payloads, ±Inf, subnormals and huge magnitudes — through both
// encode paths: encoding must never panic, and the zero-allocation Into
// path must stay bit-identical to the legacy value-returning API.
func FuzzEncodeRecordInto(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(0))
	f.Add(math.Float64bits(math.NaN()), math.Float64bits(math.Inf(1)), math.Float64bits(math.Inf(-1)))
	f.Add(math.Float64bits(-1e308), math.Float64bits(1e308), math.Float64bits(5e-324))
	f.Add(math.Float64bits(2.5), math.Float64bits(0.5), math.Float64bits(5))
	f.Add(^uint64(0), uint64(1), math.Float64bits(-0.0)) // quiet-NaN payload, subnormal, -0
	cbs := fuzzCodebooks()
	f.Fuzz(func(t *testing.T, a, b, c uint64) {
		row := []float64{math.Float64frombits(a), math.Float64frombits(b), math.Float64frombits(c)}
		for _, cb := range cbs {
			legacy := cb.EncodeRecord(row)
			dst := hv.New(cb.Dim())
			s := hv.GetScratch(cb.Dim())
			cb.EncodeRecordInto(row, dst, s)
			hv.PutScratch(s)
			if !dst.Equal(legacy) {
				t.Fatalf("mode %v: Into path diverged from legacy for row %v (bits %x %x %x)",
					cb.Mode(), row, a, b, c)
			}
			if n := legacy.OnesCount(); n < 0 || n > cb.Dim() {
				t.Fatalf("mode %v: implausible popcount %d", cb.Mode(), n)
			}
		}
	})
}

// FuzzLevelEncoderFlips checks the level encoder's arithmetic on raw bit
// patterns: Flips must stay in [0, D/2] and EncodeInto must equal Encode
// for every input, including NaN (the missing-value baseline rule).
func FuzzLevelEncoderFlips(f *testing.F) {
	enc := NewLevelEncoder(rng.New(3), 128, -2, 9)
	f.Add(math.Float64bits(math.NaN()))
	f.Add(math.Float64bits(math.Inf(1)))
	f.Add(math.Float64bits(-2.0))
	f.Add(math.Float64bits(9.0))
	f.Fuzz(func(t *testing.T, bits uint64) {
		v := math.Float64frombits(bits)
		x := enc.Flips(v)
		if x < 0 || x > enc.dim/2 {
			t.Fatalf("Flips(%v) = %d outside [0, %d]", v, x, enc.dim/2)
		}
		got := hv.New(enc.dim)
		enc.EncodeInto(v, got)
		if !got.Equal(enc.Encode(v)) {
			t.Fatalf("EncodeInto(%v) diverged from Encode", v)
		}
		if math.IsNaN(v) && !got.Equal(enc.seed) {
			t.Fatalf("NaN did not encode as the baseline seed")
		}
	})
}
