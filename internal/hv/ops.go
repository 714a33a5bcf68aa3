package hv

import (
	"fmt"
	"math/bits"

	"hdfe/internal/rng"
)

// Hamming returns the Hamming distance between a and b: the number of bit
// positions at which they differ. This is the paper's classification metric.
func Hamming(a, b Vector) int {
	checkSameDim(a, b)
	d := 0
	for i, w := range a.words {
		d += bits.OnesCount64(w ^ b.words[i])
	}
	return d
}

// NormalizedHamming returns Hamming(a,b)/D in [0,1]; 0.5 is the expected
// distance between independent random hypervectors ("orthogonal" in HDC).
func NormalizedHamming(a, b Vector) float64 {
	return float64(Hamming(a, b)) / float64(a.dim)
}

// Similarity returns 1 - NormalizedHamming(a,b): 1 for identical vectors,
// ~0.5 for unrelated ones, 0 for complements.
func Similarity(a, b Vector) float64 { return 1 - NormalizedHamming(a, b) }

// XorInPlace sets a ^= b.
func XorInPlace(a, b Vector) {
	checkSameDim(a, b)
	for i := range a.words {
		a.words[i] ^= b.words[i]
	}
}

// PermuteInto writes v circularly rotated by k positions into dst without
// allocating: bit i of dst is bit (i-k) mod D of v. Permutation is the HDC
// sequence/position operator; it is distance preserving. dst must not
// alias v; it panics on dimension mismatch.
func PermuteInto(dst, v Vector, k int) {
	checkSameDim(dst, v)
	if &dst.words[0] == &v.words[0] {
		panic("hv: PermuteInto dst aliases src")
	}
	d := v.dim
	k = ((k % d) + d) % d
	if k == 0 {
		copy(dst.words, v.words)
		return
	}
	dst.Clear()
	for wi, w := range v.words {
		base := wi * wordBits
		for w != 0 {
			b := bits.TrailingZeros64(w)
			p := base + b + k
			if p >= d {
				p -= d
			}
			dst.setBit(p)
			w &= w - 1
		}
	}
}

// FlipRandom flips count distinct randomly chosen bits of v in place,
// regardless of their current value. It panics if count is outside
// [0, Dim]. The result is at Hamming distance exactly count from the
// original.
func FlipRandom(v Vector, r *rng.Source, count int) {
	if count < 0 || count > v.dim {
		panic(fmt.Sprintf("hv: FlipRandom count=%d out of range [0,%d]", count, v.dim))
	}
	for _, p := range r.Perm(v.dim)[:count] {
		v.FlipBit(p)
	}
}

// FlipBalanced flips count distinct bits of v in place, half of them chosen
// among currently-set bits and half among currently-clear bits (the extra
// bit goes to the zeros side when count is odd). This is the paper's
// orthogonal-vector construction: it moves the vector to Hamming distance
// exactly count while changing its density by at most one.
//
// It panics if either side does not have enough bits to flip.
func FlipBalanced(v Vector, r *rng.Source, count int) {
	if count < 0 || count > v.dim {
		panic(fmt.Sprintf("hv: FlipBalanced count=%d out of range [0,%d]", count, v.dim))
	}
	fromOnes := count / 2
	fromZeros := count - fromOnes
	ones := v.Ones()
	zeros := v.Zeros()
	if fromOnes > len(ones) || fromZeros > len(zeros) {
		panic(fmt.Sprintf("hv: FlipBalanced cannot flip %d ones / %d zeros of a vector with %d ones, %d zeros",
			fromOnes, fromZeros, len(ones), len(zeros)))
	}
	r.Shuffle(len(ones), func(i, j int) { ones[i], ones[j] = ones[j], ones[i] })
	r.Shuffle(len(zeros), func(i, j int) { zeros[i], zeros[j] = zeros[j], zeros[i] })
	for _, p := range ones[:fromOnes] {
		v.FlipBit(p)
	}
	for _, p := range zeros[:fromZeros] {
		v.FlipBit(p)
	}
}

// Orthogonal returns a new vector at Hamming distance exactly Dim/2 from v
// with the same density (±1 bit): the paper's representation of the binary
// feature value 1 given the seed vector for 0.
func Orthogonal(v Vector, r *rng.Source) Vector {
	out := v.Clone()
	FlipBalanced(out, r, v.dim/2)
	return out
}
