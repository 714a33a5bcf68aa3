package export

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hdfe/internal/obs"
)

// collector is a minimal in-process OTLP/JSON sink.
type collector struct {
	mu      sync.Mutex
	bodies  []otlpPayload
	spans   int
	status  atomic.Int32 // response status; 0 means 200
	posts   atomic.Uint64
	headers []http.Header
}

func (c *collector) handler() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		c.posts.Add(1)
		body, _ := io.ReadAll(r.Body)
		var p otlpPayload
		if err := json.Unmarshal(body, &p); err != nil {
			http.Error(w, err.Error(), 400)
			return
		}
		c.mu.Lock()
		c.bodies = append(c.bodies, p)
		c.headers = append(c.headers, r.Header.Clone())
		for _, rs := range p.ResourceSpans {
			for _, ss := range rs.ScopeSpans {
				c.spans += len(ss.Spans)
			}
		}
		c.mu.Unlock()
		if st := c.status.Load(); st != 0 {
			w.WriteHeader(int(st))
		}
	}
}

func (c *collector) spanCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.spans
}

func (c *collector) allSpans() []otlpSpan {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []otlpSpan
	for _, p := range c.bodies {
		for _, rs := range p.ResourceSpans {
			for _, ss := range rs.ScopeSpans {
				out = append(out, ss.Spans...)
			}
		}
	}
	return out
}

func testSpan(name string, salt uint64) Span {
	var tc obs.TraceContext
	tc.TraceID[15] = byte(salt + 1)
	tc.SpanID[7] = byte(salt + 1)
	now := time.Unix(1700000000, 0)
	return Span{
		TraceID: tc.TraceID, SpanID: tc.SpanID, Name: name, Kind: KindServer,
		Start: now, End: now.Add(time.Millisecond), Status: StatusOK,
		Attrs: []Attr{String("hdfe.route", name), Int("http.status_code", 200)},
	}
}

func shutdownWithin(t *testing.T, e *Exporter, d time.Duration) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	e.Shutdown(ctx)
}

func TestExporterShipsOTLPJSON(t *testing.T) {
	var c collector
	ts := httptest.NewServer(c.handler())
	defer ts.Close()
	e := New(Config{Endpoint: ts.URL, Service: "hdtest", BatchSize: 2, FlushInterval: 10 * time.Millisecond})
	for i := 0; i < 5; i++ {
		e.Enqueue(testSpan("score", uint64(i)))
	}
	shutdownWithin(t, e, time.Second)

	if got := c.spanCount(); got != 5 {
		t.Fatalf("collector received %d spans, want 5", got)
	}
	if e.Exported() != 5 || e.Dropped() != 0 {
		t.Errorf("exported=%d dropped=%d, want 5/0", e.Exported(), e.Dropped())
	}
	if e.Batches() < 3 { // batch size 2: at least ceil(5/2) POSTs
		t.Errorf("batches=%d, want >= 3", e.Batches())
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if ct := c.headers[0].Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type %q", ct)
	}
	p := c.bodies[0]
	if len(p.ResourceSpans) != 1 || len(p.ResourceSpans[0].ScopeSpans) != 1 {
		t.Fatalf("payload shape: %+v", p)
	}
	res := p.ResourceSpans[0]
	if len(res.Resource.Attributes) == 0 || res.Resource.Attributes[0].Key != "service.name" ||
		res.Resource.Attributes[0].Value.StringValue == nil ||
		*res.Resource.Attributes[0].Value.StringValue != "hdtest" {
		t.Errorf("service.name resource attribute: %+v", res.Resource.Attributes)
	}
	sp := res.ScopeSpans[0].Spans[0]
	if len(sp.TraceID) != 32 || len(sp.SpanID) != 16 || sp.Name != "score" || sp.Kind != KindServer {
		t.Errorf("span wire shape: %+v", sp)
	}
	if sp.StartTimeUnixNano != "1700000000000000000" {
		t.Errorf("start %s", sp.StartTimeUnixNano)
	}
	// int64 attributes ride as decimal strings, per OTLP/JSON.
	var status *string
	for _, kv := range sp.Attributes {
		if kv.Key == "http.status_code" {
			status = kv.Value.IntValue
		}
	}
	if status == nil || *status != "200" {
		t.Errorf("http.status_code attr: %+v", sp.Attributes)
	}
}

// TestExporterBackpressureDrops pins the lossy-queue invariant: with the
// worker wedged, Enqueue never blocks — overflow is counted and dropped —
// and once the collector answers again, every span offered is either
// exported or counted as dropped.
func TestExporterBackpressureDrops(t *testing.T) {
	release := make(chan struct{})
	var unwedge sync.Once
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
	}))
	defer ts.Close()
	defer unwedge.Do(func() { close(release) })
	e := New(Config{Endpoint: ts.URL, QueueSize: 4, BatchSize: 4, FlushInterval: time.Millisecond, Timeout: 5 * time.Second})

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			e.Enqueue(testSpan("flood", uint64(i)))
		}
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Enqueue blocked under a wedged worker")
	}
	if e.Dropped() == 0 {
		t.Error("no spans dropped with a 4-deep queue and 200 enqueues")
	}
	unwedge.Do(func() { close(release) })
	shutdownWithin(t, e, 5*time.Second)
	if e.Exported()+e.Dropped() != 200 {
		t.Errorf("exported %d + dropped %d != 200 after the drain", e.Exported(), e.Dropped())
	}
}

// TestExporterRetriesThenDrops pins bounded retry: a failing collector
// costs MaxRetries+1 attempts per batch, after which the batch is
// dropped — never re-queued.
func TestExporterRetriesThenDrops(t *testing.T) {
	var c collector
	c.status.Store(http.StatusServiceUnavailable)
	ts := httptest.NewServer(c.handler())
	defer ts.Close()
	e := New(Config{Endpoint: ts.URL, BatchSize: 8, FlushInterval: time.Millisecond,
		MaxRetries: 2, RetryBase: time.Millisecond, Seed: 9})
	for i := 0; i < 3; i++ {
		e.Enqueue(testSpan("doomed", uint64(i)))
	}
	shutdownWithin(t, e, 2*time.Second)
	if e.Exported() != 0 {
		t.Errorf("exported %d spans from a 503 collector", e.Exported())
	}
	if e.Dropped() != 3 {
		t.Errorf("dropped=%d, want 3", e.Dropped())
	}
	if e.Failures() == 0 || e.Failures()%3 != 0 {
		t.Errorf("failures=%d, want a multiple of 3 attempts per batch", e.Failures())
	}
}

// TestExporterRecovers pins that a transient failure is retried within
// the same batch and eventually lands.
func TestExporterRecovers(t *testing.T) {
	var c collector
	var calls atomic.Uint64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.WriteHeader(http.StatusBadGateway)
			return
		}
		c.handler()(w, r)
	}))
	defer ts.Close()
	e := New(Config{Endpoint: ts.URL, BatchSize: 8, FlushInterval: time.Millisecond,
		MaxRetries: 3, RetryBase: time.Millisecond})
	e.Enqueue(testSpan("retry", 1))
	shutdownWithin(t, e, 2*time.Second)
	if e.Exported() != 1 || e.Dropped() != 0 {
		t.Errorf("exported=%d dropped=%d after transient failure, want 1/0", e.Exported(), e.Dropped())
	}
	if e.Failures() != 1 {
		t.Errorf("failures=%d, want exactly 1", e.Failures())
	}
}

func TestExporterNilSafe(t *testing.T) {
	var e *Exporter
	e.Enqueue(testSpan("nil", 1))
	e.Shutdown(context.Background())
	if e.Dropped()+e.Exported()+e.Batches()+e.Failures() != 0 {
		t.Error("nil exporter reported nonzero counters")
	}
}

func TestExporterShutdownDrains(t *testing.T) {
	var c collector
	ts := httptest.NewServer(c.handler())
	defer ts.Close()
	// FlushInterval far beyond the test: only Shutdown can flush.
	e := New(Config{Endpoint: ts.URL, BatchSize: 1024, FlushInterval: time.Hour})
	for i := 0; i < 10; i++ {
		e.Enqueue(testSpan("drain", uint64(i)))
	}
	shutdownWithin(t, e, 2*time.Second)
	if got := c.spanCount(); got != 10 {
		t.Errorf("drained %d spans, want 10", got)
	}
	// Enqueue after shutdown: counted as dropped, never panics.
	e.Enqueue(testSpan("late", 99))
	if e.Dropped() != 1 {
		t.Errorf("post-shutdown enqueue dropped=%d, want 1", e.Dropped())
	}
}
