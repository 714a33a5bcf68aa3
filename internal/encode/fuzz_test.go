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

// naiveLevel builds the codeword for x flips the direct way, one flip at a
// time from the seed: flipOnes[:x/2], then flipZeros[:x-x/2].
func naiveLevel(e *LevelEncoder, x int) hv.Vector {
	v := e.seed.Clone()
	for _, p := range e.flipOnes[:x/2] {
		v.FlipBit(int(p))
	}
	for _, p := range e.flipZeros[:x-x/2] {
		v.FlipBit(int(p))
	}
	return v
}

// FuzzLevelEncoderFlips checks the level encoder's arithmetic on raw bit
// patterns: Flips must stay in [0, D/2] and EncodeInto, into a dirty
// destination, must equal naiveLevel for every input, including NaN (the
// missing-value baseline rule). D = 1030 has two checkpoints and an odd
// D/2, so the last flip count is past the last checkpoint.
func FuzzLevelEncoderFlips(f *testing.F) {
	enc := NewLevelEncoder(rng.New(3), 1030, -2, 9)
	dirty := hv.Rand(rng.New(4), enc.dim)
	f.Add(math.Float64bits(math.NaN()))
	f.Add(math.Float64bits(math.Inf(1)))
	f.Add(math.Float64bits(-2.0))
	f.Add(math.Float64bits(9.0))
	f.Add(math.Float64bits(-2 + 11*256.0/515)) // x = 256, the first checkpoint
	f.Add(math.Float64bits(-2 + 11*511.0/515)) // x = 511, one short of the second
	f.Fuzz(func(t *testing.T, bits uint64) {
		v := math.Float64frombits(bits)
		x := enc.Flips(v)
		if x < 0 || x > enc.dim/2 {
			t.Fatalf("Flips(%v) = %d outside [0, %d]", v, x, enc.dim/2)
		}
		got := dirty.Clone()
		enc.EncodeInto(v, got)
		if !got.Equal(naiveLevel(enc, x)) {
			t.Fatalf("EncodeInto(%v) diverged from the flip-by-flip reference at x = %d", v, x)
		}
		if math.IsNaN(v) && !got.Equal(enc.seed) {
			t.Fatalf("NaN did not encode as the baseline seed")
		}
	})
}

// TestLevelEncoderCheckpointSweep encodes every flip count 0…D/2 at
// D = 1030 (min 0, max D/2, so t = x) and compares each codeword with
// naiveLevel, covering both sides of every checkpoint.
func TestLevelEncoderCheckpointSweep(t *testing.T) {
	const dim = 1030
	e := NewLevelEncoder(rng.New(17), dim, 0, dim/2)
	if len(e.checkpoints) != 2 {
		t.Fatalf("%d checkpoints at D = %d, want 2", len(e.checkpoints), dim)
	}
	dst := hv.Rand(rng.New(18), dim)
	for x := 0; x <= dim/2; x++ {
		if got := e.Flips(float64(x)); got != x {
			t.Fatalf("Flips(%d) = %d", x, got)
		}
		e.EncodeInto(float64(x), dst)
		if !dst.Equal(naiveLevel(e, x)) {
			t.Fatalf("x = %d: EncodeInto differs from the flip-by-flip reference", x)
		}
	}
}
