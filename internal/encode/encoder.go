// Package encode implements the paper's hyperdimensional feature encoders
// (§II.B of Watkinson et al.): a linear ("level") encoder for continuous
// features, a seed/orthogonal pair encoder for binary features, and a
// record encoder that majority-bundles the per-feature hypervectors into
// one patient hypervector.
//
// Encoders are fitted on training data only (min/max per feature) and are
// deterministic given an rng.Source, so experiments reproduce exactly.
//
// # Missing values and thresholds
//
// Every encoder in this package follows one NaN/threshold contract:
//
//   - NaN (a missing cell that survived the dataset's missing-value
//     policy) always encodes as the encoder's baseline codeword — the seed
//     for LevelEncoder, the low codeword for BinaryEncoder. NaN is never
//     treated as high, large, or out of range.
//   - BinaryEncoder maps t to high iff t > midpoint (strictly greater); the
//     midpoint itself and everything below maps low. This makes 0/1, 1/2
//     and any other two-level coding work without preprocessing.
//   - LevelEncoder clamps: values below min encode as the seed, values
//     above max as the seed with D/2 flips (the max codeword).
//
// Implementations must uphold this contract so record encodings of sparse
// rows stay well-defined; TestNaNContract pins it.
package encode

import (
	"fmt"
	"math"

	"hdfe/internal/hv"
	"hdfe/internal/rng"
)

// FeatureEncoder maps one scalar feature value to a hypervector.
//
// Encoders are immutable after construction: both Encode and EncodeInto
// must be safe for concurrent use, which is what lets batch encoding and
// serving fan out over a single fitted codebook with per-worker scratch.
type FeatureEncoder interface {
	// Encode returns the hypervector for value t.
	Encode(t float64) hv.Vector
	// EncodeInto writes the hypervector for value t into dst without
	// allocating, fully overwriting it. dst is caller-owned and must have
	// the encoder's dimensionality (implementations panic otherwise).
	// This is the hot-path form: Encode is a thin allocating wrapper.
	EncodeInto(t float64, dst hv.Vector)
}

// LevelEncoder is the paper's linear encoding for continuous features.
//
// A random half-dense seed hypervector represents every value <= min. A
// value t is encoded by flipping
//
//	x = round( D * (t - min) / (2 * (max - min)) )
//
// bits of the seed — half of them chosen among the seed's ones, half among
// its zeros — so that max is exactly orthogonal to min (x = D/2) and the
// Hamming distance between any two encoded values is exactly |x1 - x2|,
// i.e. proportional to their numeric difference. Proportionality holds
// because the flip order is fixed at construction: the bits flipped for a
// lower level are a strict subset of those flipped for a higher one.
type LevelEncoder struct {
	dim       int
	min, max  float64
	seed      hv.Vector
	flipOnes  []int // seed's one-positions in fixed random flip order
	flipZeros []int // seed's zero-positions in fixed random flip order
}

// NewLevelEncoder builds a level encoder for values in [min, max] at
// dimensionality dim, drawing its seed and flip order from r. It panics if
// dim <= 0 or max < min.
func NewLevelEncoder(r *rng.Source, dim int, min, max float64) *LevelEncoder {
	if dim <= 0 {
		panic(fmt.Sprintf("encode: invalid dimensionality %d", dim))
	}
	if max < min {
		panic(fmt.Sprintf("encode: max %v < min %v", max, min))
	}
	seed := hv.RandBalanced(r, dim)
	ones := seed.Ones()
	zeros := seed.Zeros()
	r.Shuffle(len(ones), func(i, j int) { ones[i], ones[j] = ones[j], ones[i] })
	r.Shuffle(len(zeros), func(i, j int) { zeros[i], zeros[j] = zeros[j], zeros[i] })
	return &LevelEncoder{dim: dim, min: min, max: max, seed: seed, flipOnes: ones, flipZeros: zeros}
}

// Range returns the fitted [min, max] value range.
func (e *LevelEncoder) Range() (min, max float64) { return e.min, e.max }

// Flips returns the number of seed bits flipped for value t: the paper's
// x = D*(t-min) / (2*(max-min)), rounded, clamped to [0, D/2]. Values below
// min map to 0 (the seed represents "min or lower"); values above max map
// to D/2. A degenerate range (max == min) always maps to 0.
func (e *LevelEncoder) Flips(t float64) int {
	if math.IsNaN(t) {
		// Package contract: missing values encode as the baseline (seed).
		// Without this guard the int conversion of NaN below would be
		// platform-defined.
		return 0
	}
	if e.max == e.min {
		return 0
	}
	x := int(math.Round(float64(e.dim) * (t - e.min) / (2 * (e.max - e.min))))
	if x < 0 {
		return 0
	}
	if x > e.dim/2 {
		return e.dim / 2
	}
	return x
}

// Encode returns the hypervector for value t.
func (e *LevelEncoder) Encode(t float64) hv.Vector {
	v := hv.New(e.dim)
	e.EncodeInto(t, v)
	return v
}

// EncodeInto writes the hypervector for value t into dst without
// allocating: a word-copy of the seed followed by the value's balanced
// bit flips, applied directly in dst.
func (e *LevelEncoder) EncodeInto(t float64, dst hv.Vector) {
	x := e.Flips(t)
	e.seed.CopyInto(dst)
	fromOnes := x / 2
	fromZeros := x - fromOnes
	for _, p := range e.flipOnes[:fromOnes] {
		dst.FlipBit(p)
	}
	for _, p := range e.flipZeros[:fromZeros] {
		dst.FlipBit(p)
	}
}

// BinaryEncoder is the paper's encoding for yes/no features: a random seed
// hypervector represents the "low" value and an orthogonal hypervector
// (D/2 balanced flips of the seed) represents the "high" value. Values are
// mapped to low/high by comparison against a fitted midpoint, which makes
// 0/1, 1/2 (the Sylhet sex coding) and any other two-level coding work
// without preprocessing.
type BinaryEncoder struct {
	dim      int
	midpoint float64
	low      hv.Vector
	high     hv.Vector
}

// NewBinaryEncoder builds a binary encoder at dimensionality dim whose
// decision midpoint is mid: Encode(t) returns the high vector iff t > mid.
func NewBinaryEncoder(r *rng.Source, dim int, mid float64) *BinaryEncoder {
	if dim <= 0 {
		panic(fmt.Sprintf("encode: invalid dimensionality %d", dim))
	}
	low := hv.RandBalanced(r, dim)
	return &BinaryEncoder{dim: dim, midpoint: mid, low: low, high: hv.Orthogonal(low, r)}
}

// Encode returns the high hypervector if t > midpoint, else the low one.
// Per the package contract, NaN (missing) encodes low: a comparison with
// NaN is never true, and the explicit guard documents that this is by
// design, not an accident of float ordering.
func (e *BinaryEncoder) Encode(t float64) hv.Vector {
	v := hv.New(e.dim)
	e.EncodeInto(t, v)
	return v
}

// EncodeInto writes the codeword for t into dst without allocating.
func (e *BinaryEncoder) EncodeInto(t float64, dst hv.Vector) {
	if math.IsNaN(t) || t <= e.midpoint {
		e.low.CopyInto(dst)
		return
	}
	e.high.CopyInto(dst)
}

// ConstantEncoder always returns the same hypervector; it is what a
// degenerate feature (a single observed value) fits to, and is also handy
// in tests.
type ConstantEncoder struct{ v hv.Vector }

// NewConstantEncoder returns an encoder pinned to v.
func NewConstantEncoder(v hv.Vector) *ConstantEncoder { return &ConstantEncoder{v: v} }

// Encode returns the pinned hypervector for any input (including NaN).
func (e *ConstantEncoder) Encode(float64) hv.Vector { return e.v.Clone() }

// EncodeInto writes the pinned hypervector into dst without allocating.
func (e *ConstantEncoder) EncodeInto(_ float64, dst hv.Vector) { e.v.CopyInto(dst) }
