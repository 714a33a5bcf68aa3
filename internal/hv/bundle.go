package hv

import "fmt"

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
		acc.Add(v)
	}
	return acc.Majority(tie)
}

// Accumulator counts, per bit position, how many of the added vectors set
// that bit, so that a majority bundle can be extracted without re-walking
// the inputs. It is the right shape for streaming (class prototypes over a
// whole cohort) as well as for one record's feature codewords.
//
// The counts are bit-sliced: plane k holds bit k of every position's
// count, packed 64 positions to a word like a Vector. Add ripples the new
// vector through the planes as a carry, and MajorityInto compares every
// count with the threshold a whole word at a time, so neither touches
// positions one by one. Planes are allocated on demand — ⌈log2(n+1)⌉ for
// n added vectors — and kept across Reset, so a reused accumulator does
// not allocate.
type Accumulator struct {
	planes [][]uint64 // planes[k][w]: bit k of the counts of word w's positions
	used   int        // planes[:used] hold the counts; the rest are zero
	work   []uint64   // Add's carries, then MajorityInto's equal-so-far mask
	total  int
	dim    int
}

// NewAccumulator returns an empty accumulator for dimensionality d.
func NewAccumulator(d int) *Accumulator {
	if d <= 0 {
		panic(fmt.Sprintf("hv: invalid accumulator dimensionality %d", d))
	}
	return &Accumulator{work: make([]uint64, (d+wordBits-1)/wordBits), dim: d}
}

// Count returns the number of vectors added so far.
func (a *Accumulator) Count() int { return a.total }

// Add accumulates v. It panics on dimension mismatch.
func (a *Accumulator) Add(v Vector) {
	if v.dim != a.dim {
		panic(fmt.Sprintf("hv: accumulator dim %d, vector dim %d", a.dim, v.dim))
	}
	a.total++
	if a.total>>a.used != 0 {
		// The counts may now need one more bit.
		if a.used == len(a.planes) {
			a.planes = append(a.planes, make([]uint64, len(v.words)))
		}
		a.used++
	}
	// Half-add v into plane 0, then ripple the carries upwards. No count
	// reaches 2^used, so nothing carries out of the top plane.
	carry := a.work
	p0 := a.planes[0][:len(carry)]
	for w, x := range v.words {
		sum := p0[w]
		p0[w] = sum ^ x
		carry[w] = sum & x
	}
	for _, p := range a.planes[1:a.used] {
		p = p[:len(carry)]
		var live uint64
		for w, c := range carry {
			sum := p[w]
			p[w] = sum ^ c
			c &= sum
			carry[w] = c
			live |= c
		}
		if live == 0 {
			break
		}
	}
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
// is fully overwritten. It panics on dimension mismatch or if nothing has
// been added. This is the destination-passing form used by the
// zero-allocation encode path.
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
	// Compare every count with need from the most significant plane
	// down: gt (held in dst) marks counts already known to be larger, eq
	// those equal so far.
	gt, eq := dst.words, a.work
	clear(gt)
	for w := range eq {
		eq[w] = ^uint64(0)
	}
	for k := a.used - 1; k >= 0; k-- {
		p := a.planes[k][:len(eq)]
		if need>>k&1 == 1 {
			for w, x := range p {
				eq[w] &= x
			}
		} else {
			for w, x := range p {
				gt[w] |= eq[w] & x
				eq[w] &^= x
			}
		}
	}
	for w, e := range eq {
		gt[w] |= e
	}
}

// Reset clears the accumulator for reuse, keeping its planes allocated.
func (a *Accumulator) Reset() {
	for _, p := range a.planes[:a.used] {
		clear(p)
	}
	a.used = 0
	a.total = 0
}
