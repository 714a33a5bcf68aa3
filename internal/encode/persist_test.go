package encode

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"hdfe/internal/hv"
	"hdfe/internal/rng"
)

func mixedCodebook(t *testing.T, mode Mode) *Codebook {
	t.Helper()
	specs := []Spec{
		{Name: "glucose", Kind: Continuous},
		{Name: "polyuria", Kind: Binary},
		{Name: "const", Kind: Continuous}, // degenerate -> ConstantEncoder
	}
	X := [][]float64{{80, 0, 5}, {200, 1, 5}, {140, 1, 5}}
	return Fit(rng.New(1), specs, X, Options{Dim: 1024, Mode: mode})
}

// TestFitBytesIndependentOfWorkers fits a mixed level/binary/constant
// schema on 1 and on 4 workers and requires the same serialized bytes in
// both modes: BindBundle draws its role vectors after the features.
func TestFitBytesIndependentOfWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	kinds := []Kind{Continuous, Binary, Continuous, Continuous, Binary, Continuous, Binary, Continuous, Continuous}
	specs := make([]Spec, len(kinds))
	for j, k := range kinds {
		specs[j] = Spec{Name: fmt.Sprint("f", j), Kind: k}
	}
	X := [][]float64{{80, 0, 5, 1.5, 1, 30, 0, 7, 0.2}, {200, 1, 5, 2.5, 0, 31, 1, 7, 0.9}, {140, 1, 5, 0.5, 1, 29, 0, 7, 0.4}}
	for _, mode := range []Mode{Majority, BindBundle} {
		var out [2]bytes.Buffer
		for i, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			if _, err := Fit(rng.New(3), specs, X, Options{Dim: 1000, Mode: mode}).WriteTo(&out[i]); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(out[0].Bytes(), out[1].Bytes()) {
			t.Fatalf("mode %v: codebook bytes differ between GOMAXPROCS 1 and 4", mode)
		}
	}
}

func TestCodebookRoundTrip(t *testing.T) {
	for _, mode := range []Mode{Majority, BindBundle} {
		cb := mixedCodebook(t, mode)
		var buf bytes.Buffer
		if _, err := cb.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadCodebook(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if back.Dim() != cb.Dim() || back.NumFeatures() != cb.NumFeatures() {
			t.Fatalf("mode %v: shape mismatch", mode)
		}
		for i, s := range back.Specs() {
			if s != cb.Specs()[i] {
				t.Fatalf("mode %v: spec %d mismatch", mode, i)
			}
		}
		// The loaded codebook must encode identically — records and
		// individual features.
		rows := [][]float64{{80, 0, 5}, {200, 1, 5}, {140, 0, 5}, {170, 1, 5}}
		for _, row := range rows {
			if !back.EncodeRecord(row).Equal(cb.EncodeRecord(row)) {
				t.Fatalf("mode %v: record encoding changed after round trip", mode)
			}
			for j := range row {
				if !back.EncodeFeature(j, row[j]).Equal(cb.EncodeFeature(j, row[j])) {
					t.Fatalf("mode %v: feature %d encoding changed", mode, j)
				}
			}
		}
	}
}

func TestCodebookWriteToReportsSize(t *testing.T) {
	cb := mixedCodebook(t, Majority)
	var buf bytes.Buffer
	n, err := cb.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) || n == 0 {
		t.Fatalf("WriteTo reported %d bytes, buffer has %d", n, buf.Len())
	}
}

// levelArtifact hand-builds a 64-bit, one-feature codebook whose level
// encoder has the given flip lists. The seed's ones are bits 0–31.
func levelArtifact(ones, zeros []int32) string {
	var b bytes.Buffer
	le := binary.LittleEndian
	b.WriteString(codebookMagic)
	binary.Write(&b, le, int32(64))
	b.Write([]byte{byte(hv.TieToOne), byte(Majority)})
	binary.Write(&b, le, int32(1))
	binary.Write(&b, le, int32(1))
	b.WriteString("x")
	b.Write([]byte{byte(Continuous), encTagLevel})
	binary.Write(&b, le, [2]float64{0, 1})
	binary.Write(&b, le, uint64(1<<32-1))
	for _, xs := range [][]int32{ones, zeros} {
		binary.Write(&b, le, int32(len(xs)))
		binary.Write(&b, le, xs)
	}
	return b.String()
}

// positions returns n consecutive bit positions starting at from.
func positions(from, n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(from + i)
	}
	return out
}

func TestReadCodebookRejectsGarbage(t *testing.T) {
	// Value max flips D/2 = 32 bits: 16 of the seed's ones, 16 zeros.
	if cb, err := ReadCodebook(strings.NewReader(levelArtifact(positions(0, 16), positions(32, 16)))); err != nil {
		t.Fatalf("well-formed level artifact rejected: %v", err)
	} else if got := cb.EncodeRecord([]float64{1}).OnesCount(); got != 32 {
		t.Fatalf("max codeword has %d ones, want 32", got)
	}
	cases := []string{
		"",
		"NOTMAGIC",
		codebookMagic, // truncated after magic
		levelArtifact(nil, nil),
		levelArtifact(positions(0, 15), positions(32, 16)),
		levelArtifact(positions(0, 16), positions(32, 15)),
	}
	for i, c := range cases {
		if _, err := ReadCodebook(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
}

func TestReadCodebookRejectsTruncation(t *testing.T) {
	cb := mixedCodebook(t, Majority)
	var buf bytes.Buffer
	if _, err := cb.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{len(full) / 4, len(full) / 2, len(full) - 3} {
		if _, err := ReadCodebook(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestReadCodebookRejectsCorruptHeader(t *testing.T) {
	cb := mixedCodebook(t, Majority)
	var buf bytes.Buffer
	if _, err := cb.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Corrupt the feature count (bytes right after dim/tie/mode).
	corrupt := append([]byte(nil), data...)
	corrupt[len(codebookMagic)+6] = 0xFF
	corrupt[len(codebookMagic)+7] = 0xFF
	if _, err := ReadCodebook(bytes.NewReader(corrupt)); err == nil {
		t.Error("corrupt header accepted")
	}
}
