package hv

import (
	"fmt"
	"math/bits"
)

// TieBreak selects how Bundle resolves a per-bit tie (equal numbers of ones
// and zeros, possible only when bundling an even number of vectors).
type TieBreak int

const (
	// TieToOne sets tied bits to 1. This is the paper's rule (§II.B).
	TieToOne TieBreak = iota
	// TieToZero sets tied bits to 0.
	TieToZero
)

// Bundle combines vs by bitwise majority vote: output bit i is the most
// common value of bit i across vs, with ties resolved by tie. This is the
// paper's record-encoding operator (each patient hypervector is the
// majority bundle of its feature hypervectors).
//
// Bundle panics if vs is empty or dimensionalities disagree.
func Bundle(vs []Vector, tie TieBreak) Vector {
	if len(vs) == 0 {
		panic("hv: Bundle of zero vectors")
	}
	acc := NewAccumulator(vs[0].dim)
	for _, v := range vs {
		acc.AddRef(v)
	}
	return acc.Majority(tie)
}

// groupSize is the number of vectors one carry-save adder tree counts.
const groupSize = 8

// Accumulator counts, per bit position, how many of the added vectors set
// that bit, so that a majority bundle can be extracted without re-walking
// the inputs. It is the right shape for streaming (class prototypes over a
// whole cohort) as well as for one record's feature codewords.
//
// Vectors are counted in groups of eight, 64 positions to a word op. The
// pending group is held as the vectors themselves. When a ninth vector
// arrives, the full group is folded: a Harley–Seal carry-save adder tree
// (Muła, Kurz and Lemire, "Faster Population Counts Using AVX2
// Instructions", 2018) reduces each word of the eight vectors to a 4-bit
// count in registers, and that count is added into bit-sliced count
// planes (plane k holds bit k of every position's folded count). Majority
// counts the pending group with the same tree, adds the planes to it in
// registers and compares the total with the threshold; where the
// threshold is 4 or 8 (a record of 8 or 16 codewords under TieToOne) the
// comparison is an OR of the count's high bits. So a bundle of at most
// eight vectors (one Pima record) never touches a plane, and the empty
// slots of a partial group all read one shared zero row.
//
// On an amd64 CPU with AVX2 (checked once, from CPUID, at start-up) the
// first fold and the two OR thresholds run as assembly over whole 256-bit
// blocks, four words to an instruction, and the Go loop finishes the last
// one to three words; elsewhere the Go loop covers every word. Later
// folds and every other threshold are Go-only. Both paths give the same
// bits: TestAccumulatorMatchesNaiveCount and FuzzMajorityInto check each
// against a per-bit recount at widths with whole blocks and a tail.
//
// The group's rows and the ⌈log2(n+1)⌉ planes for n folded vectors are
// allocated on demand and kept across Reset, so a reused accumulator does
// not allocate.
type Accumulator struct {
	group   [groupSize][]uint64 // group[:pending]: the pending vectors' words; the rest read zero
	pending int
	store   []uint64   // groupSize rows that Add and Next write the pending vectors into
	zero    []uint64   // the all-zero row
	planes  [][]uint64 // planes[k][w]: bit k of the folded counts of word w's positions
	used    int        // planes[:used] hold the folded counts; the rest are stale
	total   int
	dim     int
}

// NewAccumulator returns an empty accumulator for dimensionality d.
func NewAccumulator(d int) *Accumulator {
	if d <= 0 {
		panic(fmt.Sprintf("hv: invalid accumulator dimensionality %d", d))
	}
	a := &Accumulator{zero: make([]uint64, (d+wordBits-1)/wordBits), dim: d}
	for i := range a.group {
		a.group[i] = a.zero
	}
	return a
}

// Count returns the number of vectors added so far.
func (a *Accumulator) Count() int { return a.total }

// Add accumulates a copy of v, so v may change as soon as Add returns. It
// panics on dimension mismatch.
func (a *Accumulator) Add(v Vector) {
	a.checkDim(v)
	copy(a.Next().words, v.words)
}

// AddRef accumulates v without copying it: its words are read when its
// group is counted, so v must not change until the accumulator is Reset.
// It panics on dimension mismatch.
func (a *Accumulator) AddRef(v Vector) {
	a.checkDim(v)
	a.admit()
	a.group[a.pending] = v.words
	a.pending++
}

// Next accumulates one more vector and returns the accumulator-owned
// buffer that holds it, so a caller can build the vector in place instead
// of copying it in with Add. The caller must overwrite the whole buffer,
// keeping the bits past Dim clear, before the accumulator's next Add,
// AddRef, Next or Majority.
func (a *Accumulator) Next() Vector {
	a.admit()
	nw := len(a.zero)
	if a.store == nil {
		a.store = make([]uint64, groupSize*nw)
	}
	row := a.store[a.pending*nw : (a.pending+1)*nw : (a.pending+1)*nw]
	a.group[a.pending] = row
	a.pending++
	return Vector{words: row, dim: a.dim}
}

func (a *Accumulator) checkDim(v Vector) {
	if v.dim != a.dim {
		panic(fmt.Sprintf("hv: accumulator dim %d, vector dim %d", a.dim, v.dim))
	}
}

// admit counts one more vector, folding the pending group first when it
// is full.
func (a *Accumulator) admit() {
	if a.pending == groupSize {
		a.fold()
	}
	a.total++
}

// csa is a full adder over 64 positions at once: at each position, sum
// and carry are the low and high bits of a+b+c.
func csa(a, b, c uint64) (sum, carry uint64) {
	u := a ^ b
	return u ^ c, a&b | u&c
}

// count8 is the carry-save adder tree: at each of 64 positions, c3c2c1c0
// is the number of set bits among x0…x7.
func count8(x0, x1, x2, x3, x4, x5, x6, x7 uint64) (c0, c1, c2, c3 uint64) {
	s0, t0 := csa(x0, x1, x2)
	s1, t1 := csa(x3, x4, x5)
	s2, t2 := csa(x6, x7, s0)
	c0, t3 := s1^s2, s1&s2
	u, v0 := csa(t0, t1, t2)
	c1, v1 := u^t3, u&t3
	return c0, c1, v0 ^ v1, v0 & v1
}

// fold moves the full pending group's counts into the planes and empties
// the group. The first fold after a Reset writes the planes; later folds
// add into them.
func (a *Accumulator) fold() {
	nw := len(a.zero)
	g := &a.group
	x0, x1, x2, x3 := g[0][:nw], g[1][:nw], g[2][:nw], g[3][:nw]
	x4, x5, x6, x7 := g[4][:nw], g[5][:nw], g[6][:nw], g[7][:nw]
	if a.used == 0 {
		for len(a.planes) < 4 {
			a.planes = append(a.planes, make([]uint64, nw))
		}
		a.used = 4
		p0, p1, p2, p3 := a.planes[0][:nw], a.planes[1][:nw], a.planes[2][:nw], a.planes[3][:nw]
		for w := count8Blocks(p0, p1, p2, p3, g); w < nw; w++ {
			p0[w], p1[w], p2[w], p3[w] = count8(x0[w], x1[w], x2[w], x3[w], x4[w], x5[w], x6[w], x7[w])
		}
	} else {
		// a.total vectors are folded once this group is; the planes must
		// hold their counts.
		for ; a.used < bits.Len(uint(a.total)); a.used++ {
			if a.used == len(a.planes) {
				a.planes = append(a.planes, make([]uint64, nw))
			} else {
				clear(a.planes[a.used])
			}
		}
		p0, p1, p2, p3 := a.planes[0][:nw], a.planes[1][:nw], a.planes[2][:nw], a.planes[3][:nw]
		high := a.planes[4:a.used]
		for w := range p0 {
			c0, c1, c2, c3 := count8(x0[w], x1[w], x2[w], x3[w], x4[w], x5[w], x6[w], x7[w])
			s, carry := p0[w]^c0, p0[w]&c0
			p0[w] = s
			p1[w], carry = csa(p1[w], c1, carry)
			p2[w], carry = csa(p2[w], c2, carry)
			p3[w], carry = csa(p3[w], c3, carry)
			for _, p := range high {
				if carry == 0 {
					break
				}
				p[w], carry = p[w]^carry, p[w]&carry
			}
		}
	}
	for i := range g {
		g[i] = a.zero
	}
	a.pending = 0
}

// Majority returns the bundle: bit i is 1 iff more than half of the added
// vectors had bit i set, with exact halves resolved by tie. It panics if
// nothing has been added.
func (a *Accumulator) Majority(tie TieBreak) Vector {
	out := New(a.dim)
	a.MajorityInto(tie, out)
	return out
}

// MajorityInto writes the majority bundle into dst without allocating; dst
// is fully overwritten. It leaves the counts as they are, so adding may go
// on afterwards. It panics on dimension mismatch or if nothing has been
// added. This is the destination-passing form used by the zero-allocation
// encode path.
func (a *Accumulator) MajorityInto(tie TieBreak, dst Vector) {
	if a.total == 0 {
		panic("hv: Majority of empty accumulator")
	}
	if dst.dim != a.dim {
		panic(fmt.Sprintf("hv: accumulator dim %d, dst dim %d", a.dim, dst.dim))
	}
	// Bit i is set iff 2·count > total, or 2·count == total under
	// TieToOne; in integers, iff count >= need. need >= 1, so the
	// always-zero counts past dim leave the tail clear.
	need := a.total/2 + 1
	if tie == TieToOne {
		need = (a.total + 1) / 2
	}
	nw := len(a.zero)
	g := &a.group
	x0, x1, x2, x3 := g[0][:nw], g[1][:nw], g[2][:nw], g[3][:nw]
	x4, x5, x6, x7 := g[4][:nw], g[5][:nw], g[6][:nw], g[7][:nw]
	out := dst.words[:nw]
	// A power-of-two need 2^j is met iff some bit of the count at or
	// above bit j is set, so no borrow is computed. The two thresholds a
	// record takes under TieToOne get their own loops: 8 codewords need 4
	// (one pending group), 16 need 8 (one folded group plus a pending
	// one). need 4 implies used == 0 and need 8 implies used == 4; the
	// checks say so.
	switch {
	case need == 4 && a.used == 0:
		// c2|c3 of count8 is v0|v1, the carries out of its last adder.
		for w := majority8Blocks(out, g); w < nw; w++ {
			s0, t0 := csa(x0[w], x1[w], x2[w])
			s1, t1 := csa(x3[w], x4[w], x5[w])
			s2, t2 := csa(x6[w], x7[w], s0)
			u, v0 := csa(t0, t1, t2)
			out[w] = v0 | u&(s1&s2)
		}
		return
	case need == 8 && a.used == 4:
		// The count is planes + group, at most 16: bit 3 or bit 4 of the
		// sum is set iff p3, c3 or the carry k into bit 3 is.
		p0, p1, p2, p3 := a.planes[0][:nw], a.planes[1][:nw], a.planes[2][:nw], a.planes[3][:nw]
		for w := majority16Blocks(out, p0, p1, p2, p3, g); w < nw; w++ {
			c0, c1, c2, c3 := count8(x0[w], x1[w], x2[w], x3[w], x4[w], x5[w], x6[w], x7[w])
			k := p0[w] & c0
			_, k = csa(p1[w], c1, k)
			_, k = csa(p2[w], c2, k)
			out[w] = p3[w] | c3 | k
		}
		return
	}
	// Any other need: count >= need iff count − need does not borrow.
	// Each position's borrow is found bit by bit from the bottom, as the
	// count's bits come out of the ripple add of group and planes; m(k) is
	// all ones where bit k of need is set.
	m := func(k int) uint64 { return -uint64(need >> k & 1) }
	m0, m1, m2, m3 := m(0), m(1), m(2), m(3)
	if a.used == 0 {
		// Every vector is in the pending group: its count is the count.
		for w := range out {
			c0, c1, c2, c3 := count8(x0[w], x1[w], x2[w], x3[w], x4[w], x5[w], x6[w], x7[w])
			b := ^c0 & m0
			b = borrow(c1, m1, b)
			b = borrow(c2, m2, b)
			out[w] = ^borrow(c3, m3, b)
		}
		return
	}
	p0, p1, p2, p3 := a.planes[0][:nw], a.planes[1][:nw], a.planes[2][:nw], a.planes[3][:nw]
	high := a.planes[4:a.used]
	// The count has at most one bit more than the folded counts: total is
	// at most twice the folded number.
	top, mTop := bits.Len(uint(a.total)) > a.used, m(a.used)
	for w := range out {
		c0, c1, c2, c3 := count8(x0[w], x1[w], x2[w], x3[w], x4[w], x5[w], x6[w], x7[w])
		s, carry := p0[w]^c0, p0[w]&c0
		b := ^s & m0
		s, carry = csa(p1[w], c1, carry)
		b = borrow(s, m1, b)
		s, carry = csa(p2[w], c2, carry)
		b = borrow(s, m2, b)
		s, carry = csa(p3[w], c3, carry)
		b = borrow(s, m3, b)
		for k, p := range high {
			s, carry = p[w]^carry, p[w]&carry
			b = borrow(s, m(k+4), b)
		}
		if top {
			b = borrow(carry, mTop, b)
		}
		out[w] = ^b
	}
}

// borrow returns the borrow out of one bit of count − need at 64
// positions: c is the count's bit, m is all ones where need's bit is set,
// and b is the borrow in.
func borrow(c, m, b uint64) uint64 { return b&^c | m&(^c|b) }

// Reset clears the accumulator for reuse, keeping its storage allocated.
func (a *Accumulator) Reset() {
	for i := range a.group[:a.pending] {
		a.group[i] = a.zero
	}
	a.used, a.pending, a.total = 0, 0, 0
}
