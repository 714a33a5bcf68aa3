package encode

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"hdfe/internal/hv"
)

// Codebook persistence: a fitted codebook is the entire deployable model
// state of the pure-HDC flow (plus class prototypes), so it can be saved
// once and shipped to scoring machines. The format is a versioned
// little-endian binary layout written with encoding/binary — deliberately
// explicit rather than gob so the layout is stable across Go versions and
// readable from other languages.

const codebookMagic = "HDFECB1\n"

const (
	encTagLevel    = 1
	encTagBinary   = 2
	encTagConstant = 3
)

type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// WriteTo serializes the codebook. It implements io.WriterTo.
func (c *Codebook) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	bw := bufio.NewWriter(cw)
	write := func(vs ...interface{}) error {
		for _, v := range vs {
			if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
				return err
			}
		}
		return nil
	}
	if _, err := bw.WriteString(codebookMagic); err != nil {
		return cw.n, err
	}
	if err := write(int32(c.dim), uint8(c.tie), uint8(c.mode), int32(len(c.specs))); err != nil {
		return cw.n, err
	}
	for j, spec := range c.specs {
		if err := writeString(bw, spec.Name); err != nil {
			return cw.n, err
		}
		if err := write(uint8(spec.Kind)); err != nil {
			return cw.n, err
		}
		switch enc := c.encs[j].(type) {
		case *LevelEncoder:
			if err := write(uint8(encTagLevel), enc.min, enc.max); err != nil {
				return cw.n, err
			}
			if err := writeVector(bw, enc.seed); err != nil {
				return cw.n, err
			}
			if err := writeInts(bw, enc.flipOnes); err != nil {
				return cw.n, err
			}
			if err := writeInts(bw, enc.flipZeros); err != nil {
				return cw.n, err
			}
		case *BinaryEncoder:
			if err := write(uint8(encTagBinary), enc.midpoint); err != nil {
				return cw.n, err
			}
			if err := writeVector(bw, enc.low); err != nil {
				return cw.n, err
			}
			if err := writeVector(bw, enc.high); err != nil {
				return cw.n, err
			}
		case *ConstantEncoder:
			if err := write(uint8(encTagConstant)); err != nil {
				return cw.n, err
			}
			if err := writeVector(bw, enc.v); err != nil {
				return cw.n, err
			}
		default:
			return cw.n, fmt.Errorf("encode: cannot serialize encoder type %T", enc)
		}
	}
	if c.mode == BindBundle {
		for _, role := range c.roles {
			if err := writeVector(bw, role); err != nil {
				return cw.n, err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

// ReadCodebook deserializes a codebook written by WriteTo.
func ReadCodebook(r io.Reader) (*Codebook, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(codebookMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("encode: reading codebook magic: %w", err)
	}
	if string(magic) != codebookMagic {
		return nil, fmt.Errorf("encode: bad codebook magic %q", magic)
	}
	var dim int32
	var tie, mode uint8
	var nfeat int32
	if err := readAll(br, &dim, &tie, &mode, &nfeat); err != nil {
		return nil, err
	}
	if dim <= 0 || nfeat <= 0 || nfeat > 1<<20 {
		return nil, fmt.Errorf("encode: implausible codebook header dim=%d nfeat=%d", dim, nfeat)
	}
	if mode > uint8(BindBundle) || tie > uint8(hv.TieToZero) {
		return nil, fmt.Errorf("encode: unknown mode/tie %d/%d", mode, tie)
	}
	cb := &Codebook{
		dim:  int(dim),
		tie:  hv.TieBreak(tie),
		mode: Mode(mode),
	}
	for j := int32(0); j < nfeat; j++ {
		name, err := readString(br)
		if err != nil {
			return nil, err
		}
		var kind, tag uint8
		if err := readAll(br, &kind, &tag); err != nil {
			return nil, err
		}
		if kind > uint8(Binary) {
			return nil, fmt.Errorf("encode: unknown feature kind %d", kind)
		}
		cb.specs = append(cb.specs, Spec{Name: name, Kind: Kind(kind)})
		switch tag {
		case encTagLevel:
			var lo, hi float64
			if err := readAll(br, &lo, &hi); err != nil {
				return nil, err
			}
			if math.IsNaN(lo) || math.IsNaN(hi) || hi < lo {
				return nil, fmt.Errorf("encode: bad level range [%v,%v]", lo, hi)
			}
			seed, err := readVector(br, int(dim))
			if err != nil {
				return nil, err
			}
			ones, err := readInts(br, int(dim))
			if err != nil {
				return nil, err
			}
			zeros, err := readInts(br, int(dim))
			if err != nil {
				return nil, err
			}
			// Value max flips ⌊D/2⌋/2 ones and the rest of ⌊D/2⌋ zeros.
			half := int(dim) / 2
			if len(ones) < half/2 || len(zeros) < half-half/2 {
				return nil, fmt.Errorf("encode: level flip lists of %d and %d positions, want at least %d and %d",
					len(ones), len(zeros), half/2, half-half/2)
			}
			cb.encs = append(cb.encs, newLevelEncoder(int(dim), lo, hi, seed, ones, zeros))
		case encTagBinary:
			var mid float64
			if err := readAll(br, &mid); err != nil {
				return nil, err
			}
			low, err := readVector(br, int(dim))
			if err != nil {
				return nil, err
			}
			high, err := readVector(br, int(dim))
			if err != nil {
				return nil, err
			}
			cb.encs = append(cb.encs, &BinaryEncoder{dim: int(dim), midpoint: mid, low: low, high: high})
		case encTagConstant:
			v, err := readVector(br, int(dim))
			if err != nil {
				return nil, err
			}
			cb.encs = append(cb.encs, &ConstantEncoder{v: v})
		default:
			return nil, fmt.Errorf("encode: unknown encoder tag %d", tag)
		}
	}
	if cb.mode == BindBundle {
		for j := int32(0); j < nfeat; j++ {
			role, err := readVector(br, int(dim))
			if err != nil {
				return nil, err
			}
			cb.roles = append(cb.roles, role)
		}
	}
	return cb, nil
}

func writeString(w io.Writer, s string) error {
	if err := binary.Write(w, binary.LittleEndian, int32(len(s))); err != nil {
		return err
	}
	_, err := w.Write([]byte(s))
	return err
}

func readString(r io.Reader) (string, error) {
	var n int32
	if err := readAll(r, &n); err != nil {
		return "", err
	}
	if n < 0 || n > 1<<16 {
		return "", fmt.Errorf("encode: implausible string length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", fmt.Errorf("encode: reading string: %w", err)
	}
	return string(buf), nil
}

func writeVector(w io.Writer, v hv.Vector) error {
	return binary.Write(w, binary.LittleEndian, v.Words())
}

func readVector(r io.Reader, dim int) (hv.Vector, error) {
	words := make([]uint64, (dim+63)/64)
	if err := binary.Read(r, binary.LittleEndian, words); err != nil {
		return hv.Vector{}, fmt.Errorf("encode: reading vector: %w", err)
	}
	return hv.FromWords(words, dim), nil
}

func writeInts(w io.Writer, xs []int32) error {
	if err := binary.Write(w, binary.LittleEndian, int32(len(xs))); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, xs)
}

func readInts(r io.Reader, maxLen int) ([]int32, error) {
	var n int32
	if err := readAll(r, &n); err != nil {
		return nil, err
	}
	if n < 0 || int(n) > maxLen {
		return nil, fmt.Errorf("encode: implausible int slice length %d", n)
	}
	out := make([]int32, n)
	if err := binary.Read(r, binary.LittleEndian, out); err != nil {
		return nil, fmt.Errorf("encode: reading ints: %w", err)
	}
	for _, x := range out {
		if int(x) >= maxLen || x < 0 {
			return nil, fmt.Errorf("encode: flip position %d out of range", x)
		}
	}
	return out, nil
}

func readAll(r io.Reader, vs ...interface{}) error {
	for _, v := range vs {
		if err := binary.Read(r, binary.LittleEndian, v); err != nil {
			return fmt.Errorf("encode: reading codebook: %w", err)
		}
	}
	return nil
}
