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
// because the flip order is fixed at construction: value x flips
// flipOnes[:x/2] and flipZeros[:x-x/2], so the bits flipped for a lower
// level are a strict subset of those flipped for a higher one.
//
// Because the flips form a fixed prefix, the encoder also keeps a
// checkpoint codeword every checkpointStride flips: the codeword for
// x = m·checkpointStride, for m = 1…⌊(D/2)/checkpointStride⌋ (the seed is
// m = 0). EncodeInto copies the checkpoint nearest x, below or above it,
// and applies at most checkpointStride/2 single flips; a flip is its own
// inverse, so from a checkpoint above x it undoes the flips past x. The
// bits are the same as flipping from the seed. At D = 10,000 the 78
// checkpoints take about 98 KB per feature; the flip lists are held as
// int32 to pay for part of that.
type LevelEncoder struct {
	dim         int
	min, max    float64
	seed        hv.Vector
	flipOnes    []int32     // seed's one-positions in fixed random flip order
	flipZeros   []int32     // seed's zero-positions in fixed random flip order
	checkpoints []hv.Vector // checkpoints[m-1] is the codeword for x = m·checkpointStride
}

// checkpointStride is the number of flips between stored level codewords.
// It must be even, so that a checkpoint takes exactly half its flips from
// each list. At 64 a codeword is one copy plus at most 32 flips. On a
// 2-vCPU Xeon a Pima record encoded about a fifth slower at 256, and no
// faster at 32 or 128, than at 64.
const checkpointStride = 64

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
	ones := int32s(seed.Ones())
	zeros := int32s(seed.Zeros())
	r.Shuffle(len(ones), func(i, j int) { ones[i], ones[j] = ones[j], ones[i] })
	r.Shuffle(len(zeros), func(i, j int) { zeros[i], zeros[j] = zeros[j], zeros[i] })
	return newLevelEncoder(dim, min, max, seed, ones, zeros)
}

// newLevelEncoder assembles a level encoder from its seed and flip lists
// and precomputes its checkpoints. The lists must hold every position
// that a value up to max flips, all within [0, dim).
func newLevelEncoder(dim int, min, max float64, seed hv.Vector, ones, zeros []int32) *LevelEncoder {
	e := &LevelEncoder{dim: dim, min: min, max: max, seed: seed, flipOnes: ones, flipZeros: zeros}
	cur := seed.Clone()
	for x := checkpointStride; x <= dim/2; x += checkpointStride {
		cur.FlipBits(ones[(x-checkpointStride)/2 : x/2])
		cur.FlipBits(zeros[(x-checkpointStride)/2 : x/2])
		e.checkpoints = append(e.checkpoints, cur.Clone())
	}
	return e
}

func int32s(xs []int) []int32 {
	out := make([]int32, len(xs))
	for i, x := range xs {
		out[i] = int32(x)
	}
	return out
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
	// Clamp before converting: past the int range (or at +Inf, when the
	// product overflows) the conversion is platform-defined.
	x := math.Round(float64(e.dim) * (t - e.min) / (2 * (e.max - e.min)))
	if !(x > 0) {
		return 0
	}
	if x >= float64(e.dim/2) {
		return e.dim / 2
	}
	return int(x)
}

// Encode returns the hypervector for value t.
func (e *LevelEncoder) Encode(t float64) hv.Vector {
	v := hv.New(e.dim)
	e.EncodeInto(t, v)
	return v
}

// EncodeInto writes the hypervector for value t into dst without
// allocating: a word-copy of the checkpoint nearest the value's flip
// count, followed by the flips between the two (at most
// checkpointStride/2), XORed into dst's words with no range check per
// flip. The flip lists hold only positions below D: NewLevelEncoder draws
// them from the seed and ReadCodebook rejects any other.
func (e *LevelEncoder) EncodeInto(t float64, dst hv.Vector) {
	x := e.Flips(t)
	m := min((x+checkpointStride/2)/checkpointStride, len(e.checkpoints))
	if m == 0 {
		e.seed.CopyInto(dst)
	} else {
		e.checkpoints[m-1].CopyInto(dst)
	}
	// The checkpoint flipped the first done positions of each list, x
	// flips the first x/2 ones and x-x/2 zeros: XOR the difference.
	done := m * checkpointStride / 2
	ones, zeros := x/2, x-x/2
	dst.FlipBits(e.flipOnes[min(done, ones):max(done, ones)])
	dst.FlipBits(e.flipZeros[min(done, zeros):max(done, zeros)])
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
func (e *BinaryEncoder) EncodeInto(t float64, dst hv.Vector) { e.codeword(t).CopyInto(dst) }

// codeword returns the encoder's own (shared, read-only) codeword for t.
func (e *BinaryEncoder) codeword(t float64) hv.Vector {
	if math.IsNaN(t) || t <= e.midpoint {
		return e.low
	}
	return e.high
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
