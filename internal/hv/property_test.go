package hv

import (
	"testing"

	"hdfe/internal/rng"
)

// TestHammingIsAMetric property-checks the metric axioms the scoring
// stack leans on — identity, symmetry, and the triangle inequality —
// over random vector triples at several dimensionalities, including ones
// that do not fill the last word.
func TestHammingIsAMetric(t *testing.T) {
	r := rng.New(2024)
	for _, dim := range []int{1, 63, 64, 100, 256, 1000, 10000} {
		for trial := 0; trial < 200; trial++ {
			a, b, c := Rand(r, dim), Rand(r, dim), Rand(r, dim)
			ab, bc, ac := Hamming(a, b), Hamming(b, c), Hamming(a, c)

			if d := Hamming(a, a); d != 0 {
				t.Fatalf("dim %d: Hamming(a,a) = %d", dim, d)
			}
			if ba := Hamming(b, a); ba != ab {
				t.Fatalf("dim %d: asymmetric: H(a,b)=%d H(b,a)=%d", dim, ab, ba)
			}
			if ac > ab+bc {
				t.Fatalf("dim %d trial %d: triangle violated: H(a,c)=%d > H(a,b)+H(b,c)=%d",
					dim, trial, ac, ab+bc)
			}
			if ab < 0 || ab > dim {
				t.Fatalf("dim %d: H(a,b)=%d outside [0, %d]", dim, ab, dim)
			}
			if nh := NormalizedHamming(a, b); nh < 0 || nh > 1 {
				t.Fatalf("dim %d: normalized Hamming %v outside [0,1]", dim, nh)
			}
		}
	}
}

// naiveHamming counts the differing bits of a and b one position at a
// time: the oracle for the word and block popcounts.
func naiveHamming(a, b Vector) int {
	d := 0
	for i := 0; i < a.Dim(); i++ {
		if a.Bit(i) != b.Bit(i) {
			d++
		}
	}
	return d
}

// TestHammingMatchesBitDefinition cross-checks the popcount against a
// naive per-bit count on random pairs, at widths below one 256-bit or
// 512-bit block, at whole blocks, and at blocks plus a tail (257 bits is
// 5 words, 448 is 7, 513 is 9, 10,000 bits 157).
func TestHammingMatchesBitDefinition(t *testing.T) {
	r := rng.New(7)
	for _, dim := range []int{5, 64, 130, 256, 257, 448, 512, 513, 999, 1024, 10000} {
		for trial := 0; trial < 50; trial++ {
			a, b := Rand(r, dim), Rand(r, dim)
			if got, naive := Hamming(a, b), naiveHamming(a, b); got != naive {
				t.Fatalf("dim %d: Hamming %d, per-bit count %d", dim, got, naive)
			}
		}
	}
}
