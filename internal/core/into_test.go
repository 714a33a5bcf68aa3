package core

import (
	"math"
	"testing"

	"hdfe/internal/encode"
	"hdfe/internal/hv"
	"hdfe/internal/rng"
	"hdfe/internal/synth"
)

// randomPimaRow draws a plausible (occasionally out-of-range or missing)
// Pima-shaped feature row, exercising clamping and the NaN contract.
func randomPimaRow(r *rng.Source) []float64 {
	row := []float64{
		r.Float64() * 18,       // Pregnancies
		40 + r.Float64()*180,   // Glucose
		30 + r.Float64()*90,    // BloodPressure
		r.Float64() * 70,       // SkinThickness
		r.Float64() * 600,      // Insulin
		15 + r.Float64()*40,    // BMI
		0.05 + r.Float64()*2.2, // DPF
		18 + r.Float64()*65,    // Age
	}
	if r.Float64() < 0.1 {
		row[r.Intn(len(row))] = math.NaN() // a missing cell now and then
	}
	return row
}

// TestTransformRecordIntoMatchesLegacy is the refactor's equivalence
// property: for 200 random records and both combine modes, the
// destination-passing path is bit-identical to the legacy value path.
func TestTransformRecordIntoMatchesLegacy(t *testing.T) {
	d := synth.PimaR(42)
	for _, mode := range []encode.Mode{encode.Majority, encode.BindBundle} {
		ext := NewExtractor(Options{Dim: 2000, Seed: 7, Mode: mode})
		if err := ext.FitDataset(d); err != nil {
			t.Fatal(err)
		}
		s := hv.NewScratch(ext.Dim())
		dst := hv.Rand(rng.New(1), ext.Dim()) // dirty: must be fully overwritten
		r := rng.New(uint64(100 + int(mode)))
		for trial := 0; trial < 200; trial++ {
			row := randomPimaRow(r)
			want := ext.TransformRecord(row)
			ext.TransformRecordInto(row, dst, s)
			if !dst.Equal(want) {
				t.Fatalf("mode %v trial %d: Into path differs from legacy", mode, trial)
			}
		}
	}
}

// TestTransformRecordIntoZeroAllocs is the allocation-regression guard for
// the tentpole: steady-state encoding of one record through the Into path
// must not allocate at all.
func TestTransformRecordIntoZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations; alloc count is meaningless under -race")
	}
	d := synth.PimaR(42)
	ext := NewExtractor(Options{Dim: 10000, Seed: 1})
	if err := ext.FitDataset(d); err != nil {
		t.Fatal(err)
	}
	s := hv.NewScratch(ext.Dim())
	dst := hv.New(ext.Dim())
	row := d.X[0]
	allocs := testing.AllocsPerRun(50, func() {
		ext.TransformRecordInto(row, dst, s)
	})
	if allocs != 0 {
		t.Fatalf("TransformRecordInto allocates %v per run, want 0", allocs)
	}

	// The BindBundle mode shares the same hot path.
	extBB := NewExtractor(Options{Dim: 10000, Seed: 1, Mode: encode.BindBundle})
	if err := extBB.FitDataset(d); err != nil {
		t.Fatal(err)
	}
	allocs = testing.AllocsPerRun(50, func() {
		extBB.TransformRecordInto(row, dst, s)
	})
	if allocs != 0 {
		t.Fatalf("BindBundle TransformRecordInto allocates %v per run, want 0", allocs)
	}
}

// ------------------------- allocation-regression benchmarks
//
// go test ./internal/core -bench 'TransformRecord|ScoreBatch' -benchmem
//
// The Into benchmarks must report 0 allocs/op; the legacy counterparts
// document what the value-returning API costs.

// BenchmarkTransformRecordInto encodes one Pima record at D = 10,000
// through the zero-allocation path.
func BenchmarkTransformRecordInto(b *testing.B) {
	d := synth.PimaR(42)
	ext := NewExtractor(Options{Dim: 10000, Seed: 1})
	if err := ext.FitDataset(d); err != nil {
		b.Fatal(err)
	}
	s := hv.NewScratch(ext.Dim())
	dst := hv.New(ext.Dim())
	row := d.X[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ext.TransformRecordInto(row, dst, s)
	}
}

// BenchmarkTransformRecordLegacy is the value-returning single-record
// path: one fresh hypervector per call.
func BenchmarkTransformRecordLegacy(b *testing.B) {
	d := synth.PimaR(42)
	ext := NewExtractor(Options{Dim: 10000, Seed: 1})
	if err := ext.FitDataset(d); err != nil {
		b.Fatal(err)
	}
	row := d.X[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ext.TransformRecord(row)
	}
}

// BenchmarkTransformRecordBatch encodes the whole cohort through
// Transform: one scratch per worker, one fresh result vector per record.
func BenchmarkTransformRecordBatch(b *testing.B) {
	d := synth.PimaR(42)
	ext := NewExtractor(Options{Dim: 10000, Seed: 1})
	if err := ext.FitDataset(d); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ext.Transform(d.X)
	}
}

// BenchmarkScoreBatch scores the whole cohort against a shared deployment
// into a recycled score slice.
func BenchmarkScoreBatch(b *testing.B) {
	d := synth.PimaR(42)
	dep, err := BuildDeployment(SpecsFor(d.Features), d.X, d.Y, Options{Dim: 10000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]float64, len(d.X))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = dep.ScoreBatchInto(d.X, dst)
	}
}
