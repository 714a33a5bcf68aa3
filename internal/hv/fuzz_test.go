package hv

import (
	"testing"

	"hdfe/internal/rng"
)

// FuzzMajorityInto bundles arbitrary bit patterns at arbitrary (small)
// dimensionalities and cross-checks three things: MajorityInto never
// panics on well-formed input, it agrees with the allocating Majority and
// with Bundle, and all agree with a naive per-bit recount of the inputs.
// Dimensionalities straddle the 64-bit word boundary so tail-masking bugs
// surface, and reach past the 256-bit blocks of the AVX2 kernels.
func FuzzMajorityInto(f *testing.F) {
	f.Add([]byte{0xff, 0x00, 0xaa}, uint16(3), false)
	f.Add([]byte{0x01}, uint16(63), true)
	f.Add([]byte{0xde, 0xad, 0xbe, 0xef, 0x42, 0x42, 0x42, 0x42, 0x99}, uint16(65), false)
	// Even counts at dimension 8 (one byte per vector), so the plain test
	// run checks exact ties against the TieToOne rule.
	f.Add([]byte{0xf0, 0x3c}, uint16(7), false)
	f.Add([]byte{0x0f, 0x33, 0x55, 0xff}, uint16(7), false)
	f.Add([]byte{0x01, 0x03, 0x07, 0x0f, 0x1f, 0x3f, 0x7f, 0xff}, uint16(7), false)
	// Group edges of the carry-save kernel: 7, 8 and 9 one-byte vectors
	// (a partial group, a full one, one fold plus one pending), then 16
	// and 17 (a fold plus a full group, two folds plus one). With 1, 2,
	// 3, 4, 15, 31 and 32 they also put every power-of-two need (1, 2, 4,
	// 8, 16) and its neighbours under both tie rules, so the closed-form
	// loops (need 4 with no fold, need 8 with one) and the borrow chain
	// around them all run in the plain test.
	edge := []byte{
		0x5a, 0xc3, 0x0f, 0xf0, 0x99, 0x66, 0x3c, 0xa5, 0x81, 0x7e, 0x18, 0xe7, 0x24, 0xdb, 0x42, 0xbd,
		0x55, 0xaa, 0x01, 0xfe, 0x33, 0xcc, 0x0c, 0xc0, 0x17, 0xe8, 0x6a, 0x95, 0x2d, 0xd2, 0x71, 0x8e,
	}
	for _, n := range []int{1, 2, 3, 4, 7, 8, 9, 15, 16, 17, 31, 32} {
		f.Add(edge[:n], uint16(7), false)
		f.Add(edge[:n], uint16(7), true)
	}
	// The record bundles of 8 and 16 codewords and their neighbours at 257
	// bits (33 bytes a vector): one 256-bit block for the kernels, one word
	// for the Go tail.
	r := rng.New(11)
	random := make([]byte, 16*33)
	for i := range random {
		random[i] = byte(r.Uint64())
	}
	for _, n := range []int{7, 8, 15, 16} {
		f.Add(random[:n*33], uint16(256), false)
		f.Add(random[:n*33], uint16(256), true)
	}
	f.Fuzz(func(t *testing.T, data []byte, dimSeed uint16, tieToZero bool) {
		dim := 1 + int(dimSeed)%640 // 1..640: word boundaries, and up to two 256-bit blocks plus a tail
		bytesPerVec := (dim + 7) / 8
		n := len(data) / bytesPerVec
		if n == 0 {
			t.Skip("not enough bytes for one vector")
		}
		if n > 33 {
			n = 33
		}
		tie := TieToOne
		if tieToZero {
			tie = TieToZero
		}
		vecs := make([]Vector, n)
		for i := range vecs {
			v := New(dim)
			chunk := data[i*bytesPerVec:]
			for b := 0; b < dim; b++ {
				if chunk[b/8]&(1<<(b%8)) != 0 {
					v.SetBit(b, true)
				}
			}
			vecs[i] = v
		}

		// Every way in: a copy, a reference and a buffer built in place.
		acc := NewAccumulator(dim)
		for i, v := range vecs {
			switch i % 3 {
			case 0:
				acc.Add(v)
			case 1:
				acc.AddRef(v)
			default:
				v.CopyInto(acc.Next())
			}
		}
		into := New(dim)
		acc.MajorityInto(tie, into)
		if alloc := acc.Majority(tie); !into.Equal(alloc) {
			t.Fatal("MajorityInto diverged from Majority")
		}
		if bundled := Bundle(vecs, tie); !into.Equal(bundled) {
			t.Fatal("accumulator majority diverged from Bundle")
		}
		// Naive recount: bit i is set iff strictly more than half the
		// vectors set it, or exactly half with TieToOne.
		for b := 0; b < dim; b++ {
			count := 0
			for _, v := range vecs {
				if v.Bit(b) {
					count++
				}
			}
			want := 2*count > n || (2*count == n && tie == TieToOne)
			if into.Bit(b) != want {
				t.Fatalf("bit %d: majority %v, recount %v (count %d of %d, tie %v)",
					b, into.Bit(b), want, count, n, tie)
			}
		}
		// Tail invariant: no bits set beyond dim in the backing words.
		if got := into.OnesCount(); got != len(into.Ones()) {
			t.Fatalf("popcount %d disagrees with Ones() length %d: tail bits leaked", got, len(into.Ones()))
		}
	})
}
