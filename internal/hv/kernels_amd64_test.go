package hv

import (
	"testing"

	"hdfe/internal/rng"
)

// TestKernelTiersMatchBitDefinition runs every tier of distance kernels
// the host supports against a per-bit count: each block kernel called
// directly, then Hamming and HammingPair with the tier forced. Hamming
// and HammingPair otherwise reach only the fastest tier, so on an AVX512
// host this is the one test that still runs the AVX2 distance kernels and
// the Go loops from word 0 on amd64.
func TestKernelTiersMatchBitDefinition(t *testing.T) {
	defer func(a2, a512 bool) { avx2, avx512 = a2, a512 }(avx2, avx512)
	tiers := []struct {
		name         string
		ok           bool
		avx2, avx512 bool
		one          func(a, b *uint64, n int) int
		pair         func(a, b, c *uint64, n int) (int, int)
	}{
		{"go", true, false, false, nil, nil},
		{"avx2", avx2, true, false, hammingAVX2, hammingPairAVX2},
		{"avx512", avx512, true, true, hammingAVX512, hammingPairAVX512},
	}
	r := rng.New(29)
	for _, k := range tiers {
		if !k.ok {
			t.Logf("%s: not supported by this CPU, skipped", k.name)
			continue
		}
		avx2, avx512 = k.avx2, k.avx512
		if got := Kernels(); got != k.name {
			t.Fatalf("forced tier %s, Kernels() = %q", k.name, got)
		}
		if k.one != nil {
			checkBlockKernels(t, r, k.name, k.one, k.pair)
		}
		for _, dim := range []int{1, 255, 256, 448, 512, 513, 10000} {
			a, b, c := Rand(r, dim), Rand(r, dim), Rand(r, dim)
			wab, wac := naiveHamming(a, b), naiveHamming(a, c)
			if got := Hamming(a, b); got != wab {
				t.Fatalf("%s, dim %d: Hamming %d, per-bit count %d", k.name, dim, got, wab)
			}
			if ab, ac := HammingPair(a, b, c); ab != wab || ac != wac {
				t.Fatalf("%s, dim %d: HammingPair (%d, %d), per-bit counts (%d, %d)", k.name, dim, ab, ac, wab, wac)
			}
		}
		t.Logf("%s: ran", k.name)
	}
}

// checkBlockKernels calls one tier's two block kernels on random rows of
// whole 512-bit blocks (so whole 256-bit ones too).
func checkBlockKernels(t *testing.T, r *rng.Source, name string, one func(a, b *uint64, n int) int, pair func(a, b, c *uint64, n int) (int, int)) {
	t.Helper()
	for _, nw := range []int{8, 16, 24, 152, 160} {
		for trial := 0; trial < 20; trial++ {
			a, b, c := Rand(r, nw*wordBits), Rand(r, nw*wordBits), Rand(r, nw*wordBits)
			wab, wac := naiveHamming(a, b), naiveHamming(a, c)
			if got := one(&a.words[0], &b.words[0], nw); got != wab {
				t.Fatalf("%s, %d words: hamming %d, per-bit count %d", name, nw, got, wab)
			}
			if ab, ac := pair(&a.words[0], &b.words[0], &c.words[0], nw); ab != wab || ac != wac {
				t.Fatalf("%s, %d words: pair (%d, %d), per-bit counts (%d, %d)", name, nw, ab, ac, wab, wac)
			}
		}
	}
}
