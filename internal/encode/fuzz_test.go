package encode

import (
	"fmt"
	"math"
	"math/bits"
	"testing"

	"hdfe/internal/hv"
	"hdfe/internal/rng"
)

// fuzzFeatures is the fuzz schema: 18 features cycling through a level
// encoder (continuous with range), a binary encoder and a constant encoder
// (degenerate continuous column).
const fuzzFeatures = 18

// fuzzCodebooks fits codebooks over the first 3, 16 and 18 features of
// the fuzz schema, under both combination modes and both tie rules. The
// record sizes take the carry-save kernel through a partial group alone,
// one fold with a full pending group, and two folds plus a partial group;
// the even sizes make exact ties.
func fuzzCodebooks() []*Codebook {
	specs := make([]Spec, fuzzFeatures)
	X := make([][]float64, 3)
	for i := range X {
		X[i] = make([]float64, fuzzFeatures)
	}
	for j := range specs {
		switch j % 3 {
		case 0:
			specs[j] = Spec{Name: fmt.Sprintf("level%d", j), Kind: Continuous}
			X[0][j], X[1][j], X[2][j] = -3, 7, 2.5
		case 1:
			specs[j] = Spec{Name: fmt.Sprintf("binary%d", j), Kind: Binary}
			X[0][j], X[1][j], X[2][j] = 0, 1, 1
		default:
			specs[j] = Spec{Name: fmt.Sprintf("const%d", j), Kind: Continuous}
			X[0][j], X[1][j], X[2][j] = 5, 5, 5
		}
	}
	var cbs []*Codebook
	for _, n := range []int{3, 16, fuzzFeatures} {
		for _, mode := range []Mode{Majority, BindBundle} {
			for _, tie := range []hv.TieBreak{hv.TieToOne, hv.TieToZero} {
				cbs = append(cbs, Fit(rng.New(11), specs[:n], X, Options{Dim: 192, Mode: mode, Tie: tie}))
			}
		}
	}
	return cbs
}

// naiveRecord is the record encoding computed the direct way: every
// feature's EncodeFeature codeword (XORed with its role vector under
// BindBundle), then a per-bit count and the majority rule.
func naiveRecord(cb *Codebook, row []float64) hv.Vector {
	n := cb.NumFeatures()
	counts := make([]int, cb.Dim())
	for j := 0; j < n; j++ {
		v := cb.EncodeFeature(j, row[j])
		if cb.Mode() == BindBundle {
			hv.XorInPlace(v, cb.roles[j])
		}
		for _, b := range v.Ones() {
			counts[b]++
		}
	}
	out := hv.New(cb.Dim())
	for b, c := range counts {
		out.SetBit(b, 2*c > n || (2*c == n && cb.Tie() == hv.TieToOne))
	}
	return out
}

// FuzzEncodeRecordInto feeds arbitrary float bit patterns — including
// NaN payloads, ±Inf, subnormals and huge magnitudes — through the record
// encoder and checks it against naiveRecord. Feature j reads one of the
// three inputs, rotated by j bits; every other level feature maps it into
// the fitted range instead, so mid-range flip counts are covered too.
func FuzzEncodeRecordInto(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(0))
	f.Add(math.Float64bits(math.NaN()), math.Float64bits(math.Inf(1)), math.Float64bits(math.Inf(-1)))
	f.Add(math.Float64bits(-1e308), math.Float64bits(1e308), math.Float64bits(5e-324))
	f.Add(math.Float64bits(2.5), math.Float64bits(0.5), math.Float64bits(5))
	f.Add(^uint64(0), uint64(1), math.Float64bits(-0.0)) // quiet-NaN payload, subnormal, -0
	cbs := fuzzCodebooks()
	f.Fuzz(func(t *testing.T, a, b, c uint64) {
		row := make([]float64, fuzzFeatures)
		for j := range row {
			x := bits.RotateLeft64([3]uint64{a, b, c}[j%3], j)
			row[j] = math.Float64frombits(x)
			if j%6 == 3 {
				row[j] = -3 + 10*float64(x>>11)/(1<<53)
			}
		}
		dst := hv.New(cbs[0].Dim())
		s := hv.GetScratch(cbs[0].Dim())
		defer hv.PutScratch(s)
		for _, cb := range cbs {
			want := naiveRecord(cb, row)
			cb.EncodeRecordInto(row, dst, s)
			if !dst.Equal(want) {
				t.Fatalf("%d features, mode %v, tie %v: EncodeRecordInto diverged from the naive recount for row %v",
					cb.NumFeatures(), cb.Mode(), cb.Tie(), row[:cb.NumFeatures()])
			}
			if !cb.EncodeRecord(row).Equal(want) {
				t.Fatalf("%d features, mode %v, tie %v: EncodeRecord diverged from the naive recount",
					cb.NumFeatures(), cb.Mode(), cb.Tie())
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
// missing-value baseline rule). D = 1030 has an odd D/2 that is no
// multiple of checkpointStride, so the last flip counts are past the last
// checkpoint.
func FuzzLevelEncoderFlips(f *testing.F) {
	enc := NewLevelEncoder(rng.New(3), 1030, -2, 9)
	dirty := hv.Rand(rng.New(4), enc.dim)
	f.Add(math.Float64bits(math.NaN()))
	f.Add(math.Float64bits(math.Inf(1)))
	f.Add(math.Float64bits(-2.0))
	f.Add(math.Float64bits(9.0))
	f.Add(math.Float64bits(-2 + 11*float64(checkpointStride)/515))     // the first checkpoint
	f.Add(math.Float64bits(-2 + 11*float64(2*checkpointStride-1)/515)) // one short of the second
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
	if want := dim / 2 / checkpointStride; len(e.checkpoints) != want {
		t.Fatalf("%d checkpoints at D = %d, want %d", len(e.checkpoints), dim, want)
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
