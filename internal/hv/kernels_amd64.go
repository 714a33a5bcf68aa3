package hv

// avx2 reports whether the CPU runs AVX2 and the OS saves the YMM
// registers. It is set once at start-up; without it the Go loops cover
// every word.
var avx2 = hasAVX2()

func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	// XCR0 bits 1 and 2: the OS saves the XMM and YMM state.
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

// avx512 reports whether the CPU also counts a 512-bit word in one
// VPOPCNTQ and the OS saves the ZMM state; the distance kernels then take
// whole 512-bit blocks. It is set once at start-up, and checked only once
// avx2 holds, so OSXSAVE is set and CPUID leaf 7 exists.
var avx512 = avx2 && hasAVX512()

func hasAVX512() bool {
	// XCR0 bits 1, 2 and 5–7: the OS saves the XMM, YMM, opmask and ZMM
	// state.
	if xcr0, _ := xgetbv(); xcr0&0xe6 != 0xe6 {
		return false
	}
	const avx512f, vpopcntdq = 1 << 16, 1 << 14
	_, ebx, ecx, _ := cpuid(7, 0)
	return ebx&avx512f != 0 && ecx&vpopcntdq != 0
}

// Kernels names the tier of block kernels this process runs, decided
// once at start-up: "avx512" (the distances in 512-bit VPOPCNTQ blocks,
// the record loops in AVX2), "avx2" (every kernel in AVX2) or "go" (the
// Go word loops alone).
func Kernels() string {
	switch {
	case avx512:
		return "avx512"
	case avx2:
		return "avx2"
	}
	return "go"
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// blockWords returns how many leading words of nw-word rows the AVX2
// kernels take: their whole 256-bit blocks, or none without AVX2.
func blockWords(nw int) int {
	if !avx2 {
		return 0
	}
	return nw &^ 3
}

// Each *Blocks function runs its kernel over the whole blocks of its rows
// (512-bit for the distances on the avx512 tier, 256-bit otherwise) and
// returns the number of words done, for the caller's Go loop to go on
// from. Every row, the group's included, holds at least as many words as
// the first slice argument.

func majority8Blocks(out []uint64, g *[groupSize][]uint64) int {
	n := blockWords(len(out))
	if n > 0 {
		majority8AVX2(&out[0], g, n)
	}
	return n
}

func count8Blocks(p0, p1, p2, p3 []uint64, g *[groupSize][]uint64) int {
	n := blockWords(len(p0))
	if n > 0 {
		count8AVX2(&p0[0], &p1[0], &p2[0], &p3[0], g, n)
	}
	return n
}

func majority16Blocks(out, p0, p1, p2, p3 []uint64, g *[groupSize][]uint64) int {
	n := blockWords(len(out))
	if n > 0 {
		majority16AVX2(&out[0], &p0[0], &p1[0], &p2[0], &p3[0], g, n)
	}
	return n
}

func hammingBlocks(a, b []uint64) (n, d int) {
	if avx512 {
		if n = len(a) &^ 7; n > 0 {
			d = hammingAVX512(&a[0], &b[0], n)
		}
	} else if n = blockWords(len(a)); n > 0 {
		d = hammingAVX2(&a[0], &b[0], n)
	}
	return n, d
}

func hammingPairBlocks(a, b, c []uint64) (n, ab, ac int) {
	if avx512 {
		if n = len(a) &^ 7; n > 0 {
			ab, ac = hammingPairAVX512(&a[0], &b[0], &c[0], n)
		}
	} else if n = blockWords(len(a)); n > 0 {
		ab, ac = hammingPairAVX2(&a[0], &b[0], &c[0], n)
	}
	return n, ab, ac
}

// The kernels in kernels_amd64.s. Each takes words [0, n) of its rows, n a
// positive multiple of 4 (of 8 for the AVX512 ones), and reads only those;
// group is an Accumulator's group.

//go:noescape
func majority8AVX2(out *uint64, group *[groupSize][]uint64, n int)

//go:noescape
func count8AVX2(p0, p1, p2, p3 *uint64, group *[groupSize][]uint64, n int)

//go:noescape
func majority16AVX2(out, p0, p1, p2, p3 *uint64, group *[groupSize][]uint64, n int)

//go:noescape
func hammingAVX2(a, b *uint64, n int) int

//go:noescape
func hammingPairAVX2(a, b, c *uint64, n int) (ab, ac int)

//go:noescape
func hammingAVX512(a, b *uint64, n int) int

//go:noescape
func hammingPairAVX512(a, b, c *uint64, n int) (ab, ac int)
