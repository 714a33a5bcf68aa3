// Package hv implements binary hypervectors for hyperdimensional computing
// (HDC): fixed-dimensionality bit vectors (the paper uses D = 10,000) packed
// into uint64 words, with the operations the paper's encoder and classifier
// need: random generation, balanced bit flipping, Hamming distance and
// majority bundling.
package hv

import (
	"fmt"
	"math/bits"
	"strings"

	"hdfe/internal/rng"
)

const wordBits = 64

// Vector is a D-dimensional binary hypervector packed little-endian into
// uint64 words: logical bit i lives at words[i/64] bit (i%64). Unused high
// bits of the last word are always zero; every mutating operation maintains
// that invariant so popcount-based distances never see garbage.
type Vector struct {
	words []uint64
	dim   int
}

// New returns the all-zero hypervector of dimensionality d. It panics if
// d <= 0: a zero-dimensional hypervector has no meaning in HDC.
func New(d int) Vector {
	if d <= 0 {
		panic(fmt.Sprintf("hv: invalid dimensionality %d", d))
	}
	return Vector{words: make([]uint64, (d+wordBits-1)/wordBits), dim: d}
}

// Rand returns a hypervector of dimensionality d with each bit set
// independently with probability 1/2.
func Rand(r *rng.Source, d int) Vector {
	v := New(d)
	for i := range v.words {
		v.words[i] = r.Uint64()
	}
	v.maskTail()
	return v
}

// RandBalanced returns a hypervector with exactly d/2 ones ("partially
// dense" in the paper's terms: an equal number of 1s and 0s, with the odd
// bit left 0 when d is odd). This is the seed-vector construction of the
// paper's linear encoder.
func RandBalanced(r *rng.Source, d int) Vector {
	v := New(d)
	// Floyd-style sampling would also work, but a shuffle of positions is
	// simple and d is small (10k) relative to everything around it.
	perm := r.Perm(d)
	for _, p := range perm[:d/2] {
		v.setBit(p)
	}
	return v
}

// FromWords builds a hypervector of dimensionality d from packed words
// (copied; unused tail bits are cleared). It panics if words is too short
// for d.
func FromWords(words []uint64, d int) Vector {
	v := New(d)
	if len(words) < len(v.words) {
		panic(fmt.Sprintf("hv: FromWords needs %d words for dim %d, got %d",
			len(v.words), d, len(words)))
	}
	copy(v.words, words)
	v.maskTail()
	return v
}

// FromBits builds a hypervector from a slice of 0/1 values. Any nonzero
// entry is treated as 1.
func FromBits(bits []uint8) Vector {
	v := New(len(bits))
	for i, b := range bits {
		if b != 0 {
			v.setBit(i)
		}
	}
	return v
}

// Dim returns the dimensionality (number of logical bits).
func (v Vector) Dim() int { return v.dim }

// Words exposes the packed words for read-only use by batch kernels.
// Callers must not mutate the returned slice.
func (v Vector) Words() []uint64 { return v.words }

// Clone returns a deep copy.
func (v Vector) Clone() Vector {
	w := make([]uint64, len(v.words))
	copy(w, v.words)
	return Vector{words: w, dim: v.dim}
}

// CopyInto copies v's bits into dst without allocating. It panics on
// dimension mismatch. This is the destination-passing counterpart of Clone
// and the base operation of the zero-allocation encode path.
func (v Vector) CopyInto(dst Vector) {
	checkSameDim(v, dst)
	copy(dst.words, v.words)
}

// Clear sets every bit of v to zero, keeping the backing storage.
func (v Vector) Clear() {
	for i := range v.words {
		v.words[i] = 0
	}
}

// Bit reports whether logical bit i is set. It panics if i is out of range.
func (v Vector) Bit(i int) bool {
	v.checkIndex(i)
	return v.words[i/wordBits]>>(uint(i)%wordBits)&1 == 1
}

// SetBit sets logical bit i to b.
func (v Vector) SetBit(i int, b bool) {
	v.checkIndex(i)
	if b {
		v.setBit(i)
	} else {
		v.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
	}
}

// FlipBit inverts logical bit i.
func (v Vector) FlipBit(i int) {
	v.checkIndex(i)
	v.words[i/wordBits] ^= 1 << (uint(i) % wordBits)
}

// FlipBits inverts the bits at positions ps. Unlike FlipBit it checks no
// position against Dim: every position must be below Dim(), or the flip
// corrupts the tail bits past it or panics. The level encoder's flip
// lists hold by construction (and are checked when a codebook is loaded),
// so its codewords pay for no check per flip.
func (v Vector) FlipBits(ps []int32) {
	w := v.words
	for _, p := range ps {
		w[uint32(p)/wordBits] ^= 1 << (uint32(p) % wordBits)
	}
}

func (v Vector) setBit(i int) { v.words[i/wordBits] |= 1 << (uint(i) % wordBits) }

func (v Vector) checkIndex(i int) {
	if i < 0 || i >= v.dim {
		panic(fmt.Sprintf("hv: bit index %d out of range [0,%d)", i, v.dim))
	}
}

// OnesCount returns the number of set bits (the vector's density numerator).
func (v Vector) OnesCount() int {
	n := 0
	for _, w := range v.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Density returns OnesCount/Dim, the fraction of set bits.
func (v Vector) Density() float64 { return float64(v.OnesCount()) / float64(v.dim) }

// Equal reports whether v and o have identical dimensionality and bits.
func (v Vector) Equal(o Vector) bool {
	if v.dim != o.dim {
		return false
	}
	for i, w := range v.words {
		if w != o.words[i] {
			return false
		}
	}
	return true
}

// Ones returns the indices of all set bits in ascending order.
func (v Vector) Ones() []int {
	out := make([]int, 0, v.OnesCount())
	for wi, w := range v.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, wi*wordBits+b)
			w &= w - 1
		}
	}
	return out
}

// Zeros returns the indices of all clear bits in ascending order.
func (v Vector) Zeros() []int {
	out := make([]int, 0, v.dim-v.OnesCount())
	for wi, w := range v.words {
		w = ^w
		if rem := v.dim % wordBits; rem != 0 && wi == len(v.words)-1 {
			w &= 1<<uint(rem) - 1
		}
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, wi*wordBits+b)
			w &= w - 1
		}
	}
	return out
}

// Floats writes the bits of v into dst as 0.0/1.0 values and returns dst.
// If dst is nil or too short a new slice is allocated. This is the bridge
// from hypervectors to the ML models that consume float feature matrices.
func (v Vector) Floats(dst []float64) []float64 {
	if cap(dst) < v.dim {
		dst = make([]float64, v.dim)
	}
	dst = dst[:v.dim]
	for i := range dst {
		dst[i] = 0
	}
	for wi, w := range v.words {
		base := wi * wordBits
		for w != 0 {
			b := bits.TrailingZeros64(w)
			dst[base+b] = 1
			w &= w - 1
		}
	}
	return dst
}

// String renders small vectors fully ("1010...") and large ones as a
// summary; it exists for debugging and test failure messages.
func (v Vector) String() string {
	if v.dim <= 128 {
		var sb strings.Builder
		for i := 0; i < v.dim; i++ {
			if v.Bit(i) {
				sb.WriteByte('1')
			} else {
				sb.WriteByte('0')
			}
		}
		return sb.String()
	}
	return fmt.Sprintf("hv.Vector{dim:%d ones:%d}", v.dim, v.OnesCount())
}

// Hex returns the packed words as a hex string (low word first), used by
// the hdencode CLI for a compact loss-free dump.
func (v Vector) Hex() string {
	var sb strings.Builder
	for _, w := range v.words {
		fmt.Fprintf(&sb, "%016x", w)
	}
	return sb.String()
}

// maskTail clears the unused bits of the final word.
func (v Vector) maskTail() {
	if rem := v.dim % wordBits; rem != 0 {
		v.words[len(v.words)-1] &= (1 << uint(rem)) - 1
	}
}

func checkSameDim(a, b Vector) {
	if a.dim != b.dim {
		panic(fmt.Sprintf("hv: dimensionality mismatch %d != %d", a.dim, b.dim))
	}
}
