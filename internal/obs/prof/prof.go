// Package prof is the continuous-profiling and runtime self-observability
// layer for the hdfe serving stack.
//
// The serving layer already observes requests (traces, drift, SLO burn
// rates); this package observes the process. A Profiler periodically
// captures CPU, heap, goroutine, and rate-gated mutex/block profiles into
// a bounded in-memory ring of gzipped pprof blobs, each tagged with what
// triggered it and the runtime stats at the moment of capture. The blobs
// are exactly what runtime/pprof wrote: analysis is `go tool pprof` on a
// download from /debug/prof/{id}.
//
// Watchdogs (watchdog.go) watch goroutine count, heap-growth slope, and
// GC-pause p99 over a one-minute sample ring. They are edge-triggered —
// one slog warning per excursion, not one per tick — and each firing
// watchdog captures an out-of-cycle profile, so the evidence is taken at
// the moment of the anomaly rather than minutes later.
//
// ReadRuntime (rtmetrics.go) is the process's one runtime read: a
// lock-free runtime/metrics snapshot behind the watchdogs, the capture
// metadata and the hdfe_runtime_* Prometheus families (GC pause and
// scheduler-latency histograms, heap in-use and goal, goroutines,
// cumulative mutex wait) that WriteRuntimeProm renders through the
// shared obs.PromWriter.
//
// Everything is in-process and dependency-free by design: only bounded
// metadata plus the ring's bounded blobs are held. Scoring never waits on
// this package — captures run on the profiler's own goroutine, and the
// watchdog tick is a handful of runtime/metrics reads per second.
package prof

import (
	"sync"
	"sync/atomic"
	"time"
)

// Capture kinds, matching runtime/pprof profile names (cpu is the
// StartCPUProfile stream, the others are pprof.Lookup names).
const (
	KindCPU       = "cpu"
	KindHeap      = "heap"
	KindGoroutine = "goroutine"
	KindMutex     = "mutex"
	KindBlock     = "block"
)

// Triggers recorded on captures.
const (
	// TriggerScheduled marks a capture taken by the jittered sampler.
	TriggerScheduled = "scheduled"
	// TriggerHTTP marks a capture taken for a /debug/pprof download.
	TriggerHTTP = "http"
	// Watchdog captures carry "watchdog:<name>" (see watchdog.go).
)

// CaptureMeta describes one profile in the ring: identity, what triggered
// it, and the process state at the moment it was taken — so a blob pulled
// out of the ring days later still explains its own context.
type CaptureMeta struct {
	// ID is monotonically increasing across the profiler's lifetime;
	// /debug/prof/{id} downloads the blob.
	ID uint64 `json:"id"`
	// Kind is cpu, heap, goroutine, mutex, or block.
	Kind string `json:"kind"`
	// Trigger is scheduled, http, or watchdog:<name>.
	Trigger string `json:"trigger"`
	// TakenAt is when the capture finished.
	TakenAt time.Time `json:"taken_at"`
	// Duration is the sampling window (CPU captures only).
	DurationMs float64 `json:"duration_ms,omitempty"`
	// SizeBytes is the gzipped blob size.
	SizeBytes int `json:"size_bytes"`
	// Goroutines, HeapInuseBytes, and MemTotalBytes snapshot the runtime
	// at capture time (MemTotalBytes is the Go runtime's mapped memory —
	// the in-process approximation of RSS).
	Goroutines     int    `json:"goroutines"`
	HeapInuseBytes uint64 `json:"heap_inuse_bytes"`
	MemTotalBytes  uint64 `json:"mem_total_bytes"`
	// ModelVersion is the active model when the capture was taken, so a
	// hot-spot shift can be tied to a hot-swap.
	ModelVersion uint64 `json:"model_version,omitempty"`
}

// Capture is one ring entry: metadata plus the gzipped pprof protobuf
// exactly as runtime/pprof wrote it (`go tool pprof` reads it directly).
type Capture struct {
	Meta CaptureMeta
	Blob []byte
}

// Ring is a bounded, mutex-guarded ring of captures. New captures evict
// the oldest; memory stays bounded by capacity times blob size (CPU blobs
// at the default 250ms window are a few KiB).
type Ring struct {
	mu     sync.Mutex
	buf    []Capture
	next   int // index of the slot the next Add overwrites
	filled bool
	nextID atomic.Uint64
}

// NewRing builds a ring holding up to capacity captures (min 1).
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{buf: make([]Capture, 0, capacity)}
}

// Add stores a capture, assigns it the next ID, and returns that ID.
func (r *Ring) Add(c Capture) uint64 {
	c.Meta.ID = r.nextID.Add(1)
	r.mu.Lock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, c)
	} else {
		r.buf[r.next] = c
		r.next = (r.next + 1) % cap(r.buf)
		r.filled = true
	}
	r.mu.Unlock()
	return c.Meta.ID
}

// List returns capture metadata, newest first.
func (r *Ring) List() []CaptureMeta {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]CaptureMeta, 0, len(r.buf))
	// Walk backwards from the most recently written slot.
	for i := 0; i < len(r.buf); i++ {
		idx := (r.next - 1 - i + 2*len(r.buf)) % len(r.buf)
		if !r.filled {
			// Not yet wrapped: slots 0..len-1 in insertion order and
			// r.next is meaningless; newest is the last element.
			idx = len(r.buf) - 1 - i
		}
		out = append(out, r.buf[idx].Meta)
	}
	return out
}

// Get returns the capture with the given ID, if it is still in the ring.
func (r *Ring) Get(id uint64) (Capture, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.buf {
		if r.buf[i].Meta.ID == id {
			return r.buf[i], true
		}
	}
	return Capture{}, false
}

// Len reports how many captures the ring currently holds.
func (r *Ring) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}
