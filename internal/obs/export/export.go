// Package export ships finished traces to an OTLP/HTTP collector as
// OTLP/JSON span batches, in the repo's dependency-free style: the
// protocol structs are hand-rolled, the queue is bounded and lossy, and
// the worker retries with seeded backoff so chaos runs replay exactly.
//
// The design invariant — shared with the shadow scorer — is that the
// telemetry backend can never slow scoring down: Enqueue is a
// non-blocking channel send that drops (and counts) spans when the
// queue is full, the HTTP POSTs happen on one worker goroutine off the
// hot path, and a failed batch is dropped after bounded retries rather
// than re-queued. Tail sampling (Sampler) decides which traces are
// worth shipping at all: a head-sampled fraction, plus every slow,
// error, and shed trace.
package export

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hdfe/internal/chaos"
	"hdfe/internal/obs"
	"hdfe/internal/rng"
)

// Span kinds, per the OTLP enum.
const (
	KindInternal = 1
	KindServer   = 2
)

// Status codes, per the OTLP enum.
const (
	StatusUnset = 0
	StatusOK    = 1
	StatusError = 2
)

// Attr is one span attribute. Exactly one of Str/Int is rendered,
// selected by IsInt.
type Attr struct {
	Key   string
	Str   string
	Int   int64
	IsInt bool
}

// String builds a string attribute.
func String(k, v string) Attr { return Attr{Key: k, Str: v} }

// Int builds an integer attribute.
func Int(k string, v int64) Attr { return Attr{Key: k, Int: v, IsInt: true} }

// Span is one OTLP span, ready to serialize.
type Span struct {
	TraceID   [16]byte
	SpanID    [8]byte
	Parent    [8]byte // zero: root span
	Name      string
	Kind      int
	Start     time.Time
	End       time.Time
	Attrs     []Attr
	Status    int
	StatusMsg string
}

// otlp wire shapes (OTLP/JSON over HTTP, stable v1 trace schema).
type otlpKeyValue struct {
	Key   string       `json:"key"`
	Value otlpAnyValue `json:"value"`
}
type otlpAnyValue struct {
	StringValue *string `json:"stringValue,omitempty"`
	IntValue    *string `json:"intValue,omitempty"` // int64 as decimal string, per spec
}
type otlpStatus struct {
	Code    int    `json:"code,omitempty"`
	Message string `json:"message,omitempty"`
}
type otlpSpan struct {
	TraceID           string         `json:"traceId"`
	SpanID            string         `json:"spanId"`
	ParentSpanID      string         `json:"parentSpanId,omitempty"`
	Name              string         `json:"name"`
	Kind              int            `json:"kind"`
	StartTimeUnixNano string         `json:"startTimeUnixNano"`
	EndTimeUnixNano   string         `json:"endTimeUnixNano"`
	Attributes        []otlpKeyValue `json:"attributes,omitempty"`
	Status            otlpStatus     `json:"status"`
}
type otlpScopeSpans struct {
	Scope struct {
		Name string `json:"name"`
	} `json:"scope"`
	Spans []otlpSpan `json:"spans"`
}
type otlpResourceSpans struct {
	Resource struct {
		Attributes []otlpKeyValue `json:"attributes"`
	} `json:"resource"`
	ScopeSpans []otlpScopeSpans `json:"scopeSpans"`
}
type otlpPayload struct {
	ResourceSpans []otlpResourceSpans `json:"resourceSpans"`
}

func attrKV(a Attr) otlpKeyValue {
	kv := otlpKeyValue{Key: a.Key}
	if a.IsInt {
		v := strconv.FormatInt(a.Int, 10)
		kv.Value.IntValue = &v
	} else {
		v := a.Str
		kv.Value.StringValue = &v
	}
	return kv
}

func (s Span) wire() otlpSpan {
	hexTrace := obs.TraceContext{TraceID: s.TraceID}.TraceIDString()
	out := otlpSpan{
		TraceID:           hexTrace,
		SpanID:            obs.TraceContext{SpanID: s.SpanID}.SpanIDString(),
		Name:              s.Name,
		Kind:              s.Kind,
		StartTimeUnixNano: strconv.FormatInt(s.Start.UnixNano(), 10),
		EndTimeUnixNano:   strconv.FormatInt(s.End.UnixNano(), 10),
		Status:            otlpStatus{Code: s.Status, Message: s.StatusMsg},
	}
	if s.Parent != ([8]byte{}) {
		out.ParentSpanID = obs.TraceContext{SpanID: s.Parent}.SpanIDString()
	}
	for _, a := range s.Attrs {
		out.Attributes = append(out.Attributes, attrKV(a))
	}
	return out
}

// marshal renders one span batch as an OTLP/JSON export request body.
func marshal(service string, spans []Span) ([]byte, error) {
	var rs otlpResourceSpans
	rs.Resource.Attributes = []otlpKeyValue{attrKV(String("service.name", service))}
	ss := otlpScopeSpans{}
	ss.Scope.Name = "hdfe/internal/obs"
	ss.Spans = make([]otlpSpan, len(spans))
	for i, s := range spans {
		ss.Spans[i] = s.wire()
	}
	rs.ScopeSpans = []otlpScopeSpans{ss}
	return json.Marshal(otlpPayload{ResourceSpans: []otlpResourceSpans{rs}})
}

// Config tunes an Exporter. The zero value of every field gets the
// default noted on it.
type Config struct {
	// Endpoint is the collector URL, e.g. http://localhost:4318/v1/traces.
	Endpoint string
	// Service is the service.name resource attribute (default "hdserve").
	Service string
	// QueueSize bounds the lossy span queue (default 1024 spans).
	QueueSize int
	// BatchSize is the max spans per POST (default 128).
	BatchSize int
	// FlushInterval bounds how long a partial batch waits (default 1s).
	FlushInterval time.Duration
	// Timeout bounds one POST attempt (default 2s).
	Timeout time.Duration
	// MaxRetries is how many times a failed POST is retried before the
	// batch is dropped (default 2, i.e. 3 attempts total).
	MaxRetries int
	// RetryBase is the first retry's backoff; attempt n waits
	// RetryBase<<n plus uniform jitter in [0, RetryBase) (default 100ms).
	RetryBase time.Duration
	// Seed seeds the backoff jitter (default 1) so retry schedules
	// replay deterministically.
	Seed uint64
	// Chaos is the fault-injection seam, consulted before every POST.
	Chaos *chaos.Injector
}

func (c Config) withDefaults() Config {
	if c.Service == "" {
		c.Service = "hdserve"
	}
	if c.QueueSize <= 0 {
		c.QueueSize = 1024
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 128
	}
	if c.FlushInterval <= 0 {
		c.FlushInterval = time.Second
	}
	if c.Timeout <= 0 {
		c.Timeout = 2 * time.Second
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	} else if c.MaxRetries == 0 {
		c.MaxRetries = 2
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 100 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Exporter ships spans to the collector from a single worker goroutine.
// All methods are nil-safe, so a server without an -otlp-endpoint pays
// one branch per would-be call.
type Exporter struct {
	cfg Config
	src *rng.Source // jitter; worker-goroutine owned

	enqueued atomic.Uint64 // spans accepted into the queue
	dropped  atomic.Uint64 // spans lost: queue full or batch failed
	exported atomic.Uint64 // spans acknowledged by the collector
	batches  atomic.Uint64 // successful POSTs
	failures atomic.Uint64 // POST attempts that failed (per attempt)

	mu     sync.RWMutex // guards closed vs. Enqueue, so close(queue) is safe
	closed bool
	queue  chan Span
	done   chan struct{}
}

// New starts an exporter worker for cfg. cfg.Endpoint must be non-empty;
// callers that have no endpoint keep a nil *Exporter instead.
func New(cfg Config) *Exporter {
	cfg = cfg.withDefaults()
	e := &Exporter{
		cfg:   cfg,
		src:   rng.New(cfg.Seed),
		queue: make(chan Span, cfg.QueueSize),
		done:  make(chan struct{}),
	}
	go e.loop()
	return e
}

// Enqueue offers one span for export without ever blocking: a full
// queue (or a closed exporter) drops the span and counts it, because a
// slow tracing backend must shed telemetry, not throttle scoring.
func (e *Exporter) Enqueue(s Span) {
	if e == nil {
		return
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		e.dropped.Add(1)
		return
	}
	select {
	case e.queue <- s:
		e.enqueued.Add(1)
	default:
		e.dropped.Add(1)
	}
}

// Dropped reports spans lost to queue overflow or failed batches.
func (e *Exporter) Dropped() uint64 {
	if e == nil {
		return 0
	}
	return e.dropped.Load()
}

// Exported reports spans acknowledged by the collector.
func (e *Exporter) Exported() uint64 {
	if e == nil {
		return 0
	}
	return e.exported.Load()
}

// Batches reports successful export POSTs.
func (e *Exporter) Batches() uint64 {
	if e == nil {
		return 0
	}
	return e.batches.Load()
}

// Failures reports failed POST attempts (each retry counts).
func (e *Exporter) Failures() uint64 {
	if e == nil {
		return 0
	}
	return e.failures.Load()
}

// Shutdown stops accepting spans, flushes everything already queued,
// and waits for the worker — bounded by ctx: when ctx expires first,
// Shutdown returns while the worker finishes its last batch in the
// background. Safe to call more than once; nil-safe.
func (e *Exporter) Shutdown(ctx context.Context) {
	if e == nil {
		return
	}
	e.mu.Lock()
	already := e.closed
	e.closed = true
	e.mu.Unlock()
	if !already {
		close(e.queue)
	}
	select {
	case <-e.done:
	case <-ctx.Done():
	}
}

// loop batches queued spans and posts them: a batch goes out when it
// reaches BatchSize or when FlushInterval elapses with spans waiting.
// Closing the queue drains it — buffered spans still deliver before ok
// reports false — so Shutdown flushes everything accepted.
func (e *Exporter) loop() {
	defer close(e.done)
	batch := make([]Span, 0, e.cfg.BatchSize)
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	flush := func() {
		if len(batch) > 0 {
			e.post(batch)
			batch = batch[:0]
		}
	}
	for {
		s, ok := <-e.queue
		if !ok {
			flush()
			return
		}
		batch = append(batch, s)
		timer.Reset(e.cfg.FlushInterval)
	collect:
		for len(batch) < e.cfg.BatchSize {
			select {
			case s, ok := <-e.queue:
				if !ok {
					break collect
				}
				batch = append(batch, s)
			case <-timer.C:
				break collect
			}
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		flush()
	}
}

// post ships one batch with bounded retries and seeded backoff+jitter.
// A batch that exhausts its retries is dropped and counted — never
// re-queued, so a dead collector cannot grow unbounded memory.
func (e *Exporter) post(batch []Span) {
	body, err := marshal(e.cfg.Service, batch)
	if err != nil {
		e.failures.Add(1)
		e.dropped.Add(uint64(len(batch)))
		return
	}
	for attempt := 0; ; attempt++ {
		if e.tryPost(body) {
			e.batches.Add(1)
			e.exported.Add(uint64(len(batch)))
			return
		}
		e.failures.Add(1)
		if attempt >= e.cfg.MaxRetries {
			e.dropped.Add(uint64(len(batch)))
			return
		}
		backoff := e.cfg.RetryBase << uint(attempt)
		backoff += time.Duration(e.src.Uint64n(uint64(e.cfg.RetryBase)))
		time.Sleep(backoff)
	}
}

// tryPost is one POST attempt, with the chaos export seam ahead of the
// network so stalls and failures are injectable without a collector.
func (e *Exporter) tryPost(body []byte) bool {
	if err := e.cfg.Chaos.Inject(chaos.PointExport); err != nil {
		return false
	}
	ctx, cancel := context.WithTimeout(context.Background(), e.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, e.cfg.Endpoint, bytes.NewReader(body))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode >= 200 && resp.StatusCode < 300
}
