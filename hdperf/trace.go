package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// tracer keeps spans in memory for the traced run and writes them out
// when the run ends. Its methods are safe for concurrent use. A nil
// *tracer records nothing, so the untraced run pays one branch per call
// site.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

// span is one timed call the benchmark made into a layer.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Count  int    `json:"count"` // operations the span covers
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span under parent (0 for none) and returns its ID, which
// is 0 on a nil tracer.
func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now, End: now})
	return len(t.spans)
}

// end closes span id, which covered count operations.
func (t *tracer) end(id, count int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	t.spans[id-1].Count = count
}

// add records a span the caller timed itself.
func (t *tracer) add(name string, parent int, from, to time.Time, count int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: int64(from.Sub(t.epoch)), End: int64(to.Sub(t.epoch)), Count: count,
	})
}

// nsPerOp is the total duration of the spans named name over the
// operations they cover.
func (t *tracer) nsPerOp(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var ns, n int64
	for _, s := range t.spans {
		if s.Name == name {
			ns += s.End - s.Start
			n += int64(s.Count)
		}
	}
	return ratio(float64(ns), float64(n))
}

// medianSeconds is the median duration of the spans named name.
func (t *tracer) medianSeconds(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var ds []float64
	for _, s := range t.spans {
		if s.Name == name {
			ds = append(ds, float64(s.End-s.Start)/1e9)
		}
	}
	return percentile(ds, 0.5)
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write stores the machine record and every span as JSON at path.
func (t *tracer) write(path string, mach machine) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(struct {
		Machine machine `json:"machine"`
		Spans   []span  `json:"spans"`
	}{mach, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
