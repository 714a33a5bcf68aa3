package prof

import (
	"math"
	"runtime"
	"runtime/metrics"
	"strings"
	"testing"
	"time"

	"hdfe/internal/obs"
)

func TestFoldHistogram(t *testing.T) {
	h := &metrics.Float64Histogram{
		// Runtime layout: len(Buckets) == len(Counts)+1, with ±Inf edges.
		Buckets: []float64{math.Inf(-1), 1e-7, 2e-6, 3e-3, math.Inf(1)},
		Counts:  []uint64{2, 3, 5, 1},
	}
	counts, sum := foldHistogram(h, promSecondsBounds)
	if len(counts) != len(promSecondsBounds)+1 {
		t.Fatalf("len(counts) = %d", len(counts))
	}
	// Bucket (-Inf,1e-7]: hi=1e-7 <= 1e-6 -> slot 0. (1e-7,2e-6]: hi=2e-6 <= 5e-6
	// -> slot 1. (2e-6,3e-3]: hi=3e-3 <= 5e-3 -> slot 7. (3e-3,+Inf): overflow.
	want := map[int]uint64{0: 2, 1: 3, 7: 5, len(promSecondsBounds): 1}
	for i, n := range counts {
		if n != want[i] {
			t.Fatalf("counts[%d] = %d, want %d (all: %v)", i, n, want[i], counts)
		}
	}
	// Midpoints: -Inf edge collapses to 1e-7, +Inf edge collapses to 3e-3.
	wantSum := 2*1e-7 + 3*(1e-7+2e-6)/2 + 5*(2e-6+3e-3)/2 + 1*3e-3
	if math.Abs(sum-wantSum) > 1e-12 {
		t.Fatalf("sum = %v, want %v", sum, wantSum)
	}
}

func TestFoldHistogramNil(t *testing.T) {
	counts, sum := foldHistogram(nil, promSecondsBounds)
	if len(counts) != len(promSecondsBounds)+1 || sum != 0 {
		t.Fatalf("nil fold = %v, %v", counts, sum)
	}
	for _, n := range counts {
		if n != 0 {
			t.Fatal("nil fold must be all-zero")
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	buckets := []float64{0, 1, 2, 4, math.Inf(1)}
	counts := []uint64{10, 80, 9, 1}
	if got := histogramQuantile(buckets, counts, 0.5); got != 2 {
		t.Fatalf("p50 = %v, want 2 (upper bound of rank bucket)", got)
	}
	if got := histogramQuantile(buckets, counts, 0.99); got != 4 {
		t.Fatalf("p99 = %v, want 4", got)
	}
	// Rank landing in the +Inf bucket reports the finite lower bound.
	if got := histogramQuantile(buckets, counts, 1); got != 4 {
		t.Fatalf("p100 = %v, want 4", got)
	}
	if got := histogramQuantile(buckets, []uint64{0, 0, 0, 0}, 0.99); got != 0 {
		t.Fatalf("empty histogram p99 = %v, want 0", got)
	}
}

func TestGCPauseP99Delta(t *testing.T) {
	buckets := []float64{0, 1e-3, 1e-2, 1e-1, math.Inf(1)}
	prev := &metrics.Float64Histogram{Buckets: buckets, Counts: []uint64{100, 0, 0, 0}}
	curr := &metrics.Float64Histogram{Buckets: buckets, Counts: []uint64{100, 99, 1, 0}}
	// Window delta: 99 pauses <=10ms, 1 pause <=100ms. p99 lands in the
	// second bucket: 10ms.
	if got := gcPauseP99Delta(prev, curr); got != 10*time.Millisecond {
		t.Fatalf("p99 delta = %v, want 10ms", got)
	}
	if got := gcPauseP99Delta(nil, nil); got != 0 {
		t.Fatalf("nil delta = %v", got)
	}
}

// TestReadRuntimeSnapshotsDoNotAlias pins what lets the watchdog keep a
// window of samples without copying them: every read owns its
// histograms, so a later read never rewrites an earlier snapshot.
func TestReadRuntimeSnapshotsDoNotAlias(t *testing.T) {
	a := ReadRuntime()
	if a.GCPauses == nil || a.SchedLatencies == nil {
		t.Fatal("runtime histograms missing from the snapshot")
	}
	before := append([]uint64(nil), a.GCPauses.Counts...)
	runtime.GC()
	b := ReadRuntime()
	if &a.GCPauses.Counts[0] == &b.GCPauses.Counts[0] ||
		&a.SchedLatencies.Counts[0] == &b.SchedLatencies.Counts[0] {
		t.Fatal("two reads share histogram counts")
	}
	for i, n := range before {
		if a.GCPauses.Counts[i] != n {
			t.Fatalf("GC pause count %d changed from %d to %d after a later read", i, n, a.GCPauses.Counts[i])
		}
	}
}

func TestReadRuntimeAndWriteProm(t *testing.T) {
	s := ReadRuntime()
	if s.Goroutines <= 0 {
		t.Fatalf("goroutines = %d", s.Goroutines)
	}
	if s.HeapInuseBytes == 0 || s.MemTotalBytes == 0 {
		t.Fatalf("heap=%d total=%d, want non-zero", s.HeapInuseBytes, s.MemTotalBytes)
	}

	var sb strings.Builder
	WriteRuntimeProm(obs.NewPromWriter(&sb))
	out := sb.String()
	for _, want := range []string{
		"# TYPE hdfe_runtime_goroutines gauge",
		"# TYPE hdfe_runtime_heap_inuse_bytes gauge",
		"# TYPE hdfe_runtime_heap_goal_bytes gauge",
		"# TYPE hdfe_runtime_mem_total_bytes gauge",
		"# TYPE hdfe_runtime_mutex_wait_seconds_total counter",
		"# TYPE hdfe_runtime_gc_cycles_total counter",
		"# TYPE hdfe_runtime_gc_pauses_seconds histogram",
		"# TYPE hdfe_runtime_sched_latencies_seconds histogram",
		`hdfe_runtime_gc_pauses_seconds_bucket{le="+Inf"}`,
		"hdfe_runtime_sched_latencies_seconds_count",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("WriteRuntimeProm output missing %q:\n%s", want, out)
		}
	}
}
