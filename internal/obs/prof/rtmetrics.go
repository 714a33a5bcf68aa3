package prof

import (
	"math"
	"runtime/metrics"
	"time"

	"hdfe/internal/obs"
)

// Runtime metric names read from runtime/metrics. The read is lock-free
// on the runtime side and never stops the world.
const (
	mGCPauses   = "/gc/pauses:seconds"
	mSchedLat   = "/sched/latencies:seconds"
	mGoroutines = "/sched/goroutines:goroutines"
	mHeapInuse  = "/memory/classes/heap/objects:bytes"
	mHeapGoal   = "/gc/heap/goal:bytes"
	mMemTotal   = "/memory/classes/total:bytes"
	mMutexWait  = "/sync/mutex/wait/total:seconds"
	mGCCycles   = "/gc/cycles/total:gc-cycles"
)

var runtimeNames = [...]string{
	mGCPauses, mSchedLat, mGoroutines, mHeapInuse,
	mHeapGoal, mMemTotal, mMutexWait, mGCCycles,
}

// promSecondsBounds are the fixed exposition buckets the runtime's
// fine-grained histograms are folded into: sub-microsecond to one second
// in a 1-5 ladder, wide enough for GC pauses and scheduler latencies.
var promSecondsBounds = []float64{
	1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 1e-1, 5e-1, 1,
}

// RuntimeSnapshot is one coherent read of the runtime metric set.
type RuntimeSnapshot struct {
	Goroutines     int
	HeapInuseBytes uint64
	HeapGoalBytes  uint64
	MemTotalBytes  uint64
	MutexWaitSecs  float64
	GCCycles       uint64
	// GCPauses and SchedLatencies are cumulative-since-start histograms.
	GCPauses       *metrics.Float64Histogram
	SchedLatencies *metrics.Float64Histogram
}

// ReadRuntime takes one snapshot of the runtime metric set. It reads into
// fresh samples on every call, so concurrent callers (the scrape path,
// the watchdog loop, capture metadata) share no state and need no lock,
// and a snapshot kept for later is never overwritten by the next read.
// Metrics the runtime does not support (older toolchains) read as zero
// rather than failing.
func ReadRuntime() RuntimeSnapshot {
	samples := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	var s RuntimeSnapshot
	for _, smp := range samples {
		switch smp.Name {
		case mGCPauses:
			if smp.Value.Kind() == metrics.KindFloat64Histogram {
				s.GCPauses = smp.Value.Float64Histogram()
			}
		case mSchedLat:
			if smp.Value.Kind() == metrics.KindFloat64Histogram {
				s.SchedLatencies = smp.Value.Float64Histogram()
			}
		case mGoroutines:
			s.Goroutines = int(kindUint64(smp.Value))
		case mHeapInuse:
			s.HeapInuseBytes = kindUint64(smp.Value)
		case mHeapGoal:
			s.HeapGoalBytes = kindUint64(smp.Value)
		case mMemTotal:
			s.MemTotalBytes = kindUint64(smp.Value)
		case mMutexWait:
			s.MutexWaitSecs = kindFloat64(smp.Value)
		case mGCCycles:
			s.GCCycles = kindUint64(smp.Value)
		}
	}
	return s
}

func kindUint64(v metrics.Value) uint64 {
	if v.Kind() == metrics.KindUint64 {
		return v.Uint64()
	}
	return 0
}

func kindFloat64(v metrics.Value) float64 {
	switch v.Kind() {
	case metrics.KindFloat64:
		return v.Float64()
	case metrics.KindUint64:
		return float64(v.Uint64())
	}
	return 0
}

// foldHistogram folds a runtime/metrics histogram (arbitrary fine-grained
// buckets, possibly with ±Inf edges) into the fixed promSecondsBounds:
// counts gets one cell per bound plus the overflow cell, and sum is a
// midpoint estimate (the runtime does not track an exact sum; the
// estimate is consistent across scrapes because the fold is
// deterministic).
func foldHistogram(h *metrics.Float64Histogram, bounds []float64) (counts []uint64, sum float64) {
	counts = make([]uint64, len(bounds)+1)
	if h == nil {
		return counts, 0
	}
	for i, n := range h.Counts {
		if n == 0 {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		// Midpoint estimate with infinite edges collapsed to the finite one.
		mid := (lo + hi) / 2
		if math.IsInf(lo, -1) {
			mid = hi
		}
		if math.IsInf(hi, 1) {
			mid = lo
		}
		sum += mid * float64(n)
		slot := len(bounds) // overflow
		if !math.IsInf(hi, 1) {
			for j, b := range bounds {
				if hi <= b {
					slot = j
					break
				}
			}
		}
		counts[slot] += n
	}
	return counts, sum
}

// histogramQuantile returns the q-quantile of a delta histogram given as
// parallel buckets/counts (runtime layout: len(buckets) == len(counts)+1).
// The answer is the upper bound of the bucket the rank lands in —
// conservative for watchdog thresholds. Returns 0 for an empty histogram.
func histogramQuantile(buckets []float64, counts []uint64, q float64) float64 {
	var total uint64
	for _, n := range counts {
		total += n
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, n := range counts {
		cum += n
		if cum >= rank {
			hi := buckets[i+1]
			if math.IsInf(hi, 1) {
				return buckets[i]
			}
			return hi
		}
	}
	return buckets[len(buckets)-1]
}

// WriteRuntimeProm renders the hdfe_runtime_* families from one fresh
// snapshot.
func WriteRuntimeProm(p *obs.PromWriter) {
	s := ReadRuntime()
	p.Header("hdfe_runtime_goroutines", "gauge", "Goroutines that currently exist (runtime/metrics).")
	p.Value("hdfe_runtime_goroutines", float64(s.Goroutines))
	p.Header("hdfe_runtime_heap_inuse_bytes", "gauge", "Heap memory occupied by live objects and dead objects not yet swept.")
	p.Value("hdfe_runtime_heap_inuse_bytes", float64(s.HeapInuseBytes))
	p.Header("hdfe_runtime_heap_goal_bytes", "gauge", "Heap size the GC is pacing toward for the current cycle.")
	p.Value("hdfe_runtime_heap_goal_bytes", float64(s.HeapGoalBytes))
	p.Header("hdfe_runtime_mem_total_bytes", "gauge", "All memory mapped by the Go runtime (in-process RSS approximation).")
	p.Value("hdfe_runtime_mem_total_bytes", float64(s.MemTotalBytes))
	p.Header("hdfe_runtime_mutex_wait_seconds_total", "counter", "Cumulative time goroutines have spent blocked on mutexes.")
	p.Value("hdfe_runtime_mutex_wait_seconds_total", s.MutexWaitSecs)
	p.Header("hdfe_runtime_gc_cycles_total", "counter", "Completed GC cycles (runtime/metrics).")
	p.Value("hdfe_runtime_gc_cycles_total", float64(s.GCCycles))

	p.Header("hdfe_runtime_gc_pauses_seconds", "histogram", "Distribution of GC stop-the-world pause latencies since process start.")
	counts, sum := foldHistogram(s.GCPauses, promSecondsBounds)
	p.Histogram("hdfe_runtime_gc_pauses_seconds", promSecondsBounds, counts, sum)

	p.Header("hdfe_runtime_sched_latencies_seconds", "histogram", "Distribution of time goroutines spent runnable before running since process start.")
	counts, sum = foldHistogram(s.SchedLatencies, promSecondsBounds)
	p.Histogram("hdfe_runtime_sched_latencies_seconds", promSecondsBounds, counts, sum)
}

// gcPauseP99Delta computes the p99 GC pause over the window between two
// cumulative pause histograms (prev may be nil for "since start").
func gcPauseP99Delta(prev, curr *metrics.Float64Histogram) time.Duration {
	if curr == nil {
		return 0
	}
	counts := make([]uint64, len(curr.Counts))
	copy(counts, curr.Counts)
	if prev != nil && len(prev.Counts) == len(counts) {
		for i := range counts {
			counts[i] -= prev.Counts[i]
		}
	}
	return time.Duration(histogramQuantile(curr.Buckets, counts, 0.99) * float64(time.Second))
}
