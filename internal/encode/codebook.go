package encode

import (
	"fmt"
	"math"

	"hdfe/internal/hv"
	"hdfe/internal/parallel"
	"hdfe/internal/rng"
)

// Kind classifies a feature for encoding purposes.
type Kind int

const (
	// Continuous features get the paper's linear (level) encoding.
	Continuous Kind = iota
	// Binary features get the seed/orthogonal pair encoding.
	Binary
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case Continuous:
		return "continuous"
	case Binary:
		return "binary"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Spec describes one feature of a dataset schema.
type Spec struct {
	Name string
	Kind Kind
}

// Mode selects how per-feature hypervectors combine into a record
// hypervector.
type Mode int

const (
	// Majority is the paper's record encoding: bitwise majority vote over
	// the feature hypervectors, ties to one.
	Majority Mode = iota
	// BindBundle is a standard HDC alternative kept for ablations: each
	// feature hypervector is first XOR-bound to a random per-feature role
	// vector, then the bound vectors are majority-bundled. Binding makes
	// the record encoding feature-position aware.
	BindBundle
)

// Options configures Fit. The zero value reproduces the paper exactly at
// D = 10,000.
type Options struct {
	// Dim is the hypervector dimensionality; 0 means 10000 (the paper's D).
	Dim int
	// Tie is the majority tie-break rule; the default TieToOne is the
	// paper's.
	Tie hv.TieBreak
	// Mode selects Majority (paper, default) or BindBundle.
	Mode Mode
}

// DefaultDim is the paper's hypervector dimensionality.
const DefaultDim = 10000

// Codebook holds one fitted encoder per feature plus the record-combination
// rule. A Codebook is fitted on training data only and is safe for
// concurrent use afterwards.
type Codebook struct {
	specs []Spec
	encs  []FeatureEncoder
	roles []hv.Vector // only for BindBundle
	dim   int
	tie   hv.TieBreak
	mode  Mode
}

// Fit builds a Codebook for the given schema from the training matrix X
// (rows = records, columns = features, same order as specs). Continuous
// features fit min/max over their column; binary features fit the midpoint
// between their lowest and highest observed value. Randomness (seeds, flip
// orders, role vectors) derives from r; each feature uses an independent
// split stream so the encoding of feature j does not depend on how many
// other features exist — the paper's "each feature has a different seed
// hypervector".
//
// Fit panics on an empty schema, empty X, or rows narrower than the schema.
func Fit(r *rng.Source, specs []Spec, X [][]float64, opt Options) *Codebook {
	if len(specs) == 0 {
		panic("encode: Fit with empty schema")
	}
	if len(X) == 0 {
		panic("encode: Fit with no training rows")
	}
	dim := opt.Dim
	if dim == 0 {
		dim = DefaultDim
	}
	for i, row := range X {
		if len(row) < len(specs) {
			panic(fmt.Sprintf("encode: row %d has %d values for %d features", i, len(row), len(specs)))
		}
	}
	cb := &Codebook{
		specs: append([]Spec(nil), specs...),
		encs:  make([]FeatureEncoder, len(specs)),
		dim:   dim,
		tie:   opt.Tie,
		mode:  opt.Mode,
	}
	for j, spec := range specs {
		fr := r.Split()
		lo, hi := columnRange(X, j)
		switch spec.Kind {
		case Continuous:
			if lo == hi {
				cb.encs[j] = NewConstantEncoder(hv.RandBalanced(fr, dim))
			} else {
				cb.encs[j] = NewLevelEncoder(fr, dim, lo, hi)
			}
		case Binary:
			cb.encs[j] = NewBinaryEncoder(fr, dim, (lo+hi)/2)
		default:
			panic(fmt.Sprintf("encode: unknown feature kind %v", spec.Kind))
		}
	}
	if opt.Mode == BindBundle {
		cb.roles = make([]hv.Vector, len(specs))
		for j := range cb.roles {
			cb.roles[j] = hv.Rand(r.Split(), dim)
		}
	}
	return cb
}

func columnRange(X [][]float64, j int) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, row := range X {
		v := row[j]
		if math.IsNaN(v) {
			continue // missing values never reach here in practice, but be safe
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if math.IsInf(lo, 1) {
		// Entire column missing: pin an arbitrary degenerate range.
		return 0, 0
	}
	return lo, hi
}

// Dim returns the hypervector dimensionality.
func (c *Codebook) Dim() int { return c.dim }

// Tie returns the fitted majority tie-break rule.
func (c *Codebook) Tie() hv.TieBreak { return c.tie }

// Mode returns the fitted record-combination mode.
func (c *Codebook) Mode() Mode { return c.mode }

// NumFeatures returns the number of features in the schema.
func (c *Codebook) NumFeatures() int { return len(c.specs) }

// Specs returns a copy of the fitted schema.
func (c *Codebook) Specs() []Spec { return append([]Spec(nil), c.specs...) }

// Feature returns the fitted encoder for feature j.
func (c *Codebook) Feature(j int) FeatureEncoder { return c.encs[j] }

// EncodeFeature encodes a single feature value.
func (c *Codebook) EncodeFeature(j int, t float64) hv.Vector { return c.encs[j].Encode(t) }

// EncodeRecord encodes one record (a full feature row) into its patient
// hypervector: encode each feature, then combine per the codebook's mode.
// It is the allocating wrapper around EncodeRecordInto; a pooled scratch
// keeps its steady-state cost to the returned vector only.
func (c *Codebook) EncodeRecord(row []float64) hv.Vector {
	out := hv.New(c.dim)
	s := hv.GetScratch(c.dim)
	c.EncodeRecordInto(row, out, s)
	hv.PutScratch(s)
	return out
}

// EncodeRecordInto encodes one record into dst with zero allocations.
// Each feature codeword goes straight into the scratch accumulator's
// pending group: a level codeword is built in the group's own row (a
// checkpoint word-copy plus XOR flips), and under Majority a binary or
// constant codeword is counted in place from the encoder, with no copy.
// The accumulator counts the codewords eight at a time and majority-
// combines them directly into dst. dst is caller-owned and fully
// overwritten; s is exclusive to the caller for the duration of the call
// (one scratch per worker in batch loops).
func (c *Codebook) EncodeRecordInto(row []float64, dst hv.Vector, s *hv.Scratch) {
	if len(row) < len(c.encs) {
		panic(fmt.Sprintf("encode: record has %d values for %d features", len(row), len(c.encs)))
	}
	if s.Dim() != c.dim {
		panic(fmt.Sprintf("encode: scratch dim %d, codebook dim %d", s.Dim(), c.dim))
	}
	acc := s.Acc()
	acc.Reset()
	for j, enc := range c.encs {
		if c.mode == BindBundle {
			fv := acc.Next()
			enc.EncodeInto(row[j], fv)
			hv.XorInPlace(fv, c.roles[j])
			continue
		}
		switch e := enc.(type) {
		case *BinaryEncoder:
			acc.AddRef(e.codeword(row[j]))
		case *ConstantEncoder:
			acc.AddRef(e.v)
		default:
			enc.EncodeInto(row[j], acc.Next())
		}
	}
	acc.MajorityInto(c.tie, dst)
}

// EncodeAll encodes every row of X in parallel and returns the patient
// hypervectors in row order. Each worker reuses one scratch (feature
// buffer + accumulator) across all rows of its chunk.
func (c *Codebook) EncodeAll(X [][]float64) []hv.Vector {
	out := make([]hv.Vector, len(X))
	parallel.ForChunked(len(X), func(lo, hi int) {
		s := hv.GetScratch(c.dim)
		defer hv.PutScratch(s)
		for i := lo; i < hi; i++ {
			out[i] = hv.New(c.dim)
			c.EncodeRecordInto(X[i], out[i], s)
		}
	})
	return out
}

// EncodeAllFloats encodes every row and converts each hypervector to a 0/1
// float64 row — the input format the hybrid HDC+ML models consume. Each
// worker encodes into its scratch's record buffer and expands to floats,
// so no per-row hypervector is allocated.
func (c *Codebook) EncodeAllFloats(X [][]float64) [][]float64 {
	out := make([][]float64, len(X))
	parallel.ForChunked(len(X), func(lo, hi int) {
		s := hv.GetScratch(c.dim)
		defer hv.PutScratch(s)
		rec := s.Rec()
		for i := lo; i < hi; i++ {
			c.EncodeRecordInto(X[i], rec, s)
			out[i] = rec.Floats(nil)
		}
	})
	return out
}
