package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hdfe/internal/parallel"
)

// countingObserver is a minimal concurrent-safe StageObserver.
type countingObserver struct {
	encode   atomic.Int64
	distance atomic.Int64
	records  atomic.Int64
	calls    atomic.Int64
}

func (o *countingObserver) ObserveRecords(n int, encode, distance time.Duration) {
	o.encode.Add(int64(encode))
	o.distance.Add(int64(distance))
	o.records.Add(int64(n))
	o.calls.Add(1)
}

// TestScoreBatchObservedBitIdentical pins the stage-observer seam: timing
// the pipeline must not perturb a single score, under concurrency (run
// with -race by make test-race).
func TestScoreBatchObservedBitIdentical(t *testing.T) {
	d := toyDataset()
	dep, err := BuildDeployment(SpecsFor(d.Features), d.X, d.Y, Options{Dim: 1024, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := dep.ScoreBatch(d.X)

	var obs countingObserver
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := make([]float64, 0, len(d.X))
			for pass := 0; pass < 5; pass++ {
				got := dep.ScoreBatchIntoObserved(d.X, dst, &obs)
				for i := range got {
					if got[i] != want[i] {
						t.Errorf("observed score[%d] = %v, want %v", i, got[i], want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()

	if n := obs.records.Load(); n != int64(4*5*len(d.X)) {
		t.Errorf("observer saw %d records, want %d", n, 4*5*len(d.X))
	}
	// One report per worker chunk, not per record.
	if c, most := obs.calls.Load(), int64(4*5*parallel.Workers(len(d.X))); c > most {
		t.Errorf("observer called %d times, want at most %d (one per chunk)", c, most)
	}
	if obs.encode.Load() <= 0 || obs.distance.Load() <= 0 {
		t.Errorf("observer totals encode=%d distance=%d, want both > 0",
			obs.encode.Load(), obs.distance.Load())
	}
	// Encoding D-dimensional hypervectors dominates a single Hamming
	// affinity; the split should reflect that, not be an artifact.
	if obs.encode.Load() < obs.distance.Load() {
		t.Logf("note: encode %v < distance %v (tiny toy dims can flip this)",
			time.Duration(obs.encode.Load()), time.Duration(obs.distance.Load()))
	}
}

// TestScoreBatchObservedNilObserver pins that a nil observer falls back
// to the plain path and still returns identical scores.
func TestScoreBatchObservedNilObserver(t *testing.T) {
	d := toyDataset()
	dep, err := BuildDeployment(SpecsFor(d.Features), d.X, d.Y, Options{Dim: 512, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := dep.ScoreBatch(d.X)
	got := dep.ScoreBatchIntoObserved(d.X, nil, nil)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("nil-observer score[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func BenchmarkScoreBatchInto(b *testing.B) {
	d := toyDataset()
	dep, err := BuildDeployment(SpecsFor(d.Features), d.X, d.Y, Options{Dim: 10000, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]float64, len(d.X))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dep.ScoreBatchInto(d.X, dst)
	}
}

// BenchmarkScoreBatchIntoObserved measures the tracer seam's overhead
// against BenchmarkScoreBatchInto — the delta is the cost of three clock
// reads plus two atomic adds per record (acceptance target: < 2%).
func BenchmarkScoreBatchIntoObserved(b *testing.B) {
	d := toyDataset()
	dep, err := BuildDeployment(SpecsFor(d.Features), d.X, d.Y, Options{Dim: 10000, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]float64, len(d.X))
	var obs countingObserver
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dep.ScoreBatchIntoObserved(d.X, dst, &obs)
	}
}
