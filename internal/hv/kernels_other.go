//go:build !amd64

package hv

// Off amd64 there are no block kernels: the Go loops start at word 0.

func majority8Blocks(out []uint64, g *[groupSize][]uint64) int { return 0 }

func count8Blocks(p0, p1, p2, p3 []uint64, g *[groupSize][]uint64) int { return 0 }

func majority16Blocks(out, p0, p1, p2, p3 []uint64, g *[groupSize][]uint64) int { return 0 }

func hammingBlocks(a, b []uint64) (n, d int) { return 0, 0 }

func hammingPairBlocks(a, b, c []uint64) (n, ab, ac int) { return 0, 0, 0 }

// Kernels names the tier of block kernels this process runs: always "go"
// off amd64.
func Kernels() string { return "go" }
