#include "textflag.h"

// The AVX2 block kernels. Each takes its rows' words [0, n), n a positive
// multiple of 4, one 256-bit block per loop trip; BX is the word index.
// A group argument points at an Accumulator's [8][]uint64, so row i's
// data pointer sits at byte 24·i; GROUP loads the eight into R8–R15.

#define GROUP(p) \
	MOVQ 0(p), R8;   \
	MOVQ 24(p), R9;  \
	MOVQ 48(p), R10; \
	MOVQ 72(p), R11; \
	MOVQ 96(p), R12; \
	MOVQ 120(p), R13; \
	MOVQ 144(p), R14; \
	MOVQ 168(p), R15

// CSA is csa from bundle.go: sum and carry are the low and high bits of
// a+b+c. t is scratch; sum and carry may reuse a and b, not c or t.
#define CSA(a, b, c, sum, carry, t) \
	VPXOR a, b, t;         \
	VPAND a, b, carry;     \
	VPAND t, c, sum;       \
	VPOR  sum, carry, carry; \
	VPXOR t, c, sum

// ADD8 loads block BX of the eight rows and runs count8's adder tree up to
// its last full adder: s0, t0 = CSA(x0, x1, x2) in Y0, Y1; s1, t1 =
// CSA(x3, x4, x5) in Y3, Y4; s2, t2 = CSA(x6, x7, s0) in Y6, Y7; then
// c0 = s1^s2 in Y0, t3 = s1&s2 in Y3 and u, v0 = CSA(t0, t1, t2) in Y1,
// Y4. The count's other bits are c1 = u^t3, c2 = v0^(u&t3) and
// c3 = v0&(u&t3).
#define ADD8 \
	VMOVDQU (R8)(BX*8), Y0;  \
	VMOVDQU (R9)(BX*8), Y1;  \
	VMOVDQU (R10)(BX*8), Y2; \
	VMOVDQU (R11)(BX*8), Y3; \
	VMOVDQU (R12)(BX*8), Y4; \
	VMOVDQU (R13)(BX*8), Y5; \
	VMOVDQU (R14)(BX*8), Y6; \
	VMOVDQU (R15)(BX*8), Y7; \
	CSA(Y0, Y1, Y2, Y0, Y1, Y8); \
	CSA(Y3, Y4, Y5, Y3, Y4, Y8); \
	CSA(Y6, Y7, Y0, Y6, Y7, Y8); \
	VPXOR Y3, Y6, Y0;            \
	VPAND Y3, Y6, Y3;            \
	CSA(Y1, Y4, Y7, Y1, Y4, Y8)

// COUNT8 is ADD8 through to the count: c0, c1, c2, c3 in Y0, Y2, Y6, Y7.
#define COUNT8 \
	ADD8;            \
	VPXOR Y1, Y3, Y2; \
	VPAND Y1, Y3, Y5; \
	VPXOR Y4, Y5, Y6; \
	VPAND Y4, Y5, Y7

// func majority8AVX2(out *uint64, group *[groupSize][]uint64, n int)
TEXT ·majority8AVX2(SB), NOSPLIT, $0-24
	MOVQ out+0(FP), DI
	MOVQ group+8(FP), R15
	GROUP(R15)
	MOVQ n+16(FP), CX
	XORQ BX, BX

loop:
	ADD8
	VPAND   Y1, Y3, Y1
	VPOR    Y1, Y4, Y1 // c2|c3 = v0 | u&t3
	VMOVDQU Y1, (DI)(BX*8)
	ADDQ    $4, BX
	CMPQ    BX, CX
	JB      loop
	VZEROUPPER
	RET

// func count8AVX2(p0, p1, p2, p3 *uint64, group *[groupSize][]uint64, n int)
TEXT ·count8AVX2(SB), NOSPLIT, $0-48
	MOVQ p0+0(FP), AX
	MOVQ p1+8(FP), CX
	MOVQ p2+16(FP), DX
	MOVQ p3+24(FP), SI
	MOVQ group+32(FP), R15
	GROUP(R15)
	MOVQ n+40(FP), DI
	XORQ BX, BX

loop:
	COUNT8
	VMOVDQU Y0, (AX)(BX*8)
	VMOVDQU Y2, (CX)(BX*8)
	VMOVDQU Y6, (DX)(BX*8)
	VMOVDQU Y7, (SI)(BX*8)
	ADDQ    $4, BX
	CMPQ    BX, DI
	JB      loop
	VZEROUPPER
	RET

// func majority16AVX2(out, p0, p1, p2, p3 *uint64, group *[groupSize][]uint64, n int)
//
// Every general register but BX holds a row, so n stays in the frame.
TEXT ·majority16AVX2(SB), NOSPLIT, $0-56
	MOVQ out+0(FP), DI
	MOVQ p0+8(FP), AX
	MOVQ p1+16(FP), CX
	MOVQ p2+24(FP), DX
	MOVQ p3+32(FP), SI
	MOVQ group+40(FP), R15
	GROUP(R15)
	XORQ BX, BX

loop:
	COUNT8
	VPAND   (AX)(BX*8), Y0, Y9 // k = p0&c0
	VMOVDQU (CX)(BX*8), Y10
	VPXOR   Y10, Y2, Y11
	VPAND   Y10, Y2, Y10
	VPAND   Y11, Y9, Y11
	VPOR    Y10, Y11, Y9       // k = carry of p1+c1+k
	VMOVDQU (DX)(BX*8), Y10
	VPXOR   Y10, Y6, Y11
	VPAND   Y10, Y6, Y10
	VPAND   Y11, Y9, Y11
	VPOR    Y10, Y11, Y9       // k = carry of p2+c2+k
	VPOR    (SI)(BX*8), Y7, Y7
	VPOR    Y9, Y7, Y7         // p3 | c3 | k
	VMOVDQU Y7, (DI)(BX*8)
	ADDQ    $4, BX
	CMPQ    BX, n+48(FP)
	JB      loop
	VZEROUPPER
	RET

// nibblePop holds the population count of each 4-bit value: the table
// VPSHUFB looks up in each 128-bit lane (Muła, Kurz and Lemire 2018).
DATA nibblePop<>+0x00(SB)/8, $0x0302020102010100
DATA nibblePop<>+0x08(SB)/8, $0x0403030203020201
GLOBL nibblePop<>(SB), RODATA|NOPTR, $16

DATA lowNibbles<>+0x00(SB)/8, $0x0f0f0f0f0f0f0f0f
GLOBL lowNibbles<>(SB), RODATA|NOPTR, $8

// POPCNT replaces x with the population counts of its four words. t is
// scratch; Y15 holds nibblePop in both lanes, Y14 the low-nibble mask
// and Y13 zero.
#define POPCNT(x, t) \
	VPSRLW  $4, x, t;  \
	VPAND   Y14, x, x; \
	VPAND   Y14, t, t; \
	VPSHUFB x, Y15, x; \
	VPSHUFB t, Y15, t; \
	VPADDB  t, x, x;   \
	VPSADBW Y13, x, x

#define POPCNT_SETUP \
	VBROADCASTI128 nibblePop<>(SB), Y15; \
	VPBROADCASTQ   lowNibbles<>(SB), Y14; \
	VPXOR          Y13, Y13, Y13

// SUM4 adds the four words of y (x is its low half) into r, using t.
#define SUM4(y, x, t, r) \
	VEXTRACTI128 $1, y, t;   \
	VPADDQ       t, x, x;    \
	VPSHUFD      $0x4e, x, t; \
	VPADDQ       t, x, x;    \
	VMOVQ        x, r

// func hammingAVX2(a, b *uint64, n int) int
TEXT ·hammingAVX2(SB), NOSPLIT, $0-32
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ n+16(FP), CX
	POPCNT_SETUP
	VPXOR Y0, Y0, Y0
	XORQ  BX, BX

loop:
	VMOVDQU (SI)(BX*8), Y1
	VPXOR   (DI)(BX*8), Y1, Y1
	POPCNT(Y1, Y2)
	VPADDQ  Y1, Y0, Y0
	ADDQ    $4, BX
	CMPQ    BX, CX
	JB      loop
	SUM4(Y0, X0, X1, AX)
	VZEROUPPER
	MOVQ AX, ret+24(FP)
	RET

// func hammingPairAVX2(a, b, c *uint64, n int) (ab, ac int)
TEXT ·hammingPairAVX2(SB), NOSPLIT, $0-48
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ c+16(FP), DX
	MOVQ n+24(FP), CX
	POPCNT_SETUP
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	XORQ  BX, BX

loop:
	VMOVDQU (SI)(BX*8), Y2
	VPXOR   (DI)(BX*8), Y2, Y3
	VPXOR   (DX)(BX*8), Y2, Y2
	POPCNT(Y3, Y4)
	POPCNT(Y2, Y5)
	VPADDQ  Y3, Y0, Y0
	VPADDQ  Y2, Y1, Y1
	ADDQ    $4, BX
	CMPQ    BX, CX
	JB      loop
	SUM4(Y0, X0, X2, AX)
	SUM4(Y1, X1, X2, DX)
	VZEROUPPER
	MOVQ AX, ab+32(FP)
	MOVQ DX, ac+40(FP)
	RET

// The AVX512 distance kernels take one 512-bit block (eight words) per
// loop trip, n a positive multiple of 8, and count it with VPOPCNTQ
// (AVX512_VPOPCNTDQ) into eight 64-bit lanes.

// SUM8 adds the eight words of z (y is its low half, x its low quarter)
// into r, using ty and its low half tx.
#define SUM8(z, y, x, ty, tx, r) \
	VEXTRACTI64X4 $1, z, ty; \
	VPADDQ        ty, y, y;  \
	SUM4(y, x, tx, r)

// func hammingAVX512(a, b *uint64, n int) int
TEXT ·hammingAVX512(SB), NOSPLIT, $0-32
	MOVQ   a+0(FP), SI
	MOVQ   b+8(FP), DI
	MOVQ   n+16(FP), CX
	VPXORQ Z0, Z0, Z0
	XORQ   BX, BX

loop:
	VMOVDQU64 (SI)(BX*8), Z1
	VPXORQ    (DI)(BX*8), Z1, Z1
	VPOPCNTQ  Z1, Z1
	VPADDQ    Z1, Z0, Z0
	ADDQ      $8, BX
	CMPQ      BX, CX
	JB        loop
	SUM8(Z0, Y0, X0, Y1, X1, AX)
	VZEROUPPER
	MOVQ AX, ret+24(FP)
	RET

// func hammingPairAVX512(a, b, c *uint64, n int) (ab, ac int)
TEXT ·hammingPairAVX512(SB), NOSPLIT, $0-48
	MOVQ   a+0(FP), SI
	MOVQ   b+8(FP), DI
	MOVQ   c+16(FP), DX
	MOVQ   n+24(FP), CX
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	XORQ   BX, BX

loop:
	VMOVDQU64 (SI)(BX*8), Z2
	VPXORQ    (DI)(BX*8), Z2, Z3
	VPXORQ    (DX)(BX*8), Z2, Z2
	VPOPCNTQ  Z3, Z3
	VPOPCNTQ  Z2, Z2
	VPADDQ    Z3, Z0, Z0
	VPADDQ    Z2, Z1, Z1
	ADDQ      $8, BX
	CMPQ      BX, CX
	JB        loop
	SUM8(Z0, Y0, X0, Y2, X2, AX)
	SUM8(Z1, Y1, X1, Y2, X2, DX)
	VZEROUPPER
	MOVQ AX, ab+32(FP)
	MOVQ DX, ac+40(FP)
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
