package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Trace is one finished request's record: identity, outcome, and how long
// each pipeline stage took. A stage the request never entered stays zero.
type Trace struct {
	ID     uint64
	Ctx    TraceContext // W3C identity: trace ID, this request's span ID, flags
	Parent [8]byte      // upstream span ID when Ctx was adopted (zero otherwise)
	Route  string
	Status int
	Start  time.Time
	Total  time.Duration
	Batch  int    // records scored in the request (0 if n/a)
	Model  uint64 // registry version of the model that scored it (0 if n/a)
	Shed   string // overload/deadline shed reason ("" if the request was served)
	Stages [NumStages]time.Duration
}

// Tracer owns the per-stage histograms and the recent/slowest trace
// rings. It is safe for concurrent use; span recording takes no locks
// until Finish, which briefly locks the rings.
type Tracer struct {
	nextID atomic.Uint64
	seed   uint64 // trace/span ID derivation seed
	hist   [NumStages]Histogram
	pool   sync.Pool

	mu        sync.Mutex
	recent    []Trace // ring buffer of the last len(recent) traces
	recentPos int
	recentLen int
	slowest   []Trace // unordered; the smallest Total is evicted first
	slowLen   int
}

// NewTracerSeeded returns a tracer keeping the size most recent and size
// slowest traces (size <= 0 defaults to 64). seed fixes the generated W3C
// trace/span IDs, so tests asserting on exported spans or sampling
// decisions replay deterministically.
func NewTracerSeeded(size int, seed uint64) *Tracer {
	if size <= 0 {
		size = 64
	}
	t := &Tracer{
		seed:    seed,
		recent:  make([]Trace, size),
		slowest: make([]Trace, size),
	}
	t.pool.New = func() any { return new(ActiveTrace) }
	return t
}

// ActiveTrace is one in-flight request's span recorder. Obtain with
// Tracer.StartWith, feed with Step/Add/SetBatch, and always Finish exactly
// once — Finish recycles the recorder. All methods are nil-safe so
// untraced code paths cost a single branch.
type ActiveTrace struct {
	tr   *Tracer
	t    Trace
	mark time.Time
}

// StartWith opens a trace for one request on the given route and starts
// the stage clock. When parent is a valid upstream W3C trace context the
// new trace adopts its trace ID, flags, and tracestate, and records the
// upstream span as this request's parent; otherwise a fresh trace
// identity is generated. Either way the request gets its own new span
// ID. The recorder comes from a pool: steady-state tracing allocates
// nothing.
func (tr *Tracer) StartWith(route string, parent TraceContext) *ActiveTrace {
	a := tr.pool.Get().(*ActiveTrace)
	now := time.Now()
	id := tr.nextID.Add(1)
	ctx := TraceContext{Flags: FlagSampled}
	var upstream [8]byte
	if parent.Valid() {
		ctx.TraceID = parent.TraceID
		ctx.Flags = parent.Flags
		ctx.State = parent.State
		ctx.Remote = true
		upstream = parent.SpanID
	} else {
		ctx.TraceID = newTraceID(tr.seed, id)
	}
	ctx.SpanID = newSpanID(tr.seed, id)
	a.tr = tr
	a.t = Trace{ID: id, Ctx: ctx, Parent: upstream, Route: route, Start: now}
	a.mark = now
	return a
}

// ID returns the request's trace ID.
func (a *ActiveTrace) ID() uint64 {
	if a == nil {
		return 0
	}
	return a.t.ID
}

// Route returns the route the trace was started on.
func (a *ActiveTrace) Route() string {
	if a == nil {
		return ""
	}
	return a.t.Route
}

// Context returns the request's W3C trace identity — what response
// traceparent headers and exported spans carry.
func (a *ActiveTrace) Context() TraceContext {
	if a == nil {
		return TraceContext{}
	}
	return a.t.Ctx
}

// SetShed records why overload protection refused this request, so shed
// traces are attributable at /debug/traces and always survive tail
// sampling.
func (a *ActiveTrace) SetShed(reason string) {
	if a == nil {
		return
	}
	a.t.Shed = reason
}

// Step attributes the time since the last mark (Start, Step, or Mark) to
// stage s and resets the mark.
func (a *ActiveTrace) Step(s Stage) {
	if a == nil {
		return
	}
	now := time.Now()
	a.t.Stages[s] += now.Sub(a.mark)
	a.mark = now
}

// Mark resets the stage clock without attributing the elapsed time to
// any stage — used to skip over intervals measured elsewhere (e.g. the
// encode/score times a StageAccum reports via Add).
func (a *ActiveTrace) Mark() {
	if a == nil {
		return
	}
	a.mark = time.Now()
}

// Add attributes an externally measured duration to stage s.
func (a *ActiveTrace) Add(s Stage, d time.Duration) {
	if a == nil {
		return
	}
	a.t.Stages[s] += d
}

// Stage returns the time booked to stage s so far.
func (a *ActiveTrace) Stage(s Stage) time.Duration {
	if a == nil {
		return 0
	}
	return a.t.Stages[s]
}

// SetBatch records how many records the request scored.
func (a *ActiveTrace) SetBatch(n int) {
	if a == nil {
		return
	}
	a.t.Batch = n
}

// SetModel records the registry version of the model that scored the
// request — under hot-swapping, the version at scoring time, not at
// request arrival.
func (a *ActiveTrace) SetModel(version uint64) {
	if a == nil {
		return
	}
	a.t.Model = version
}

// Finish closes the trace with the response status, folds every recorded
// stage into the tracer's histograms, files the trace into the
// recent/slowest rings, and recycles the recorder. It returns a copy of
// the finished trace (for request logging). The recorder must not be
// used after Finish.
func (a *ActiveTrace) Finish(status int) Trace {
	if a == nil {
		return Trace{}
	}
	a.t.Status = status
	a.t.Total = time.Since(a.t.Start)
	tr := a.tr
	for s := 0; s < NumStages; s++ {
		if d := a.t.Stages[s]; d > 0 {
			tr.hist[s].Observe(d, "")
		}
	}
	t := a.t
	tr.record(t)
	a.tr = nil
	tr.pool.Put(a)
	return t
}

// record files one finished trace into both rings.
func (tr *Tracer) record(t Trace) {
	tr.mu.Lock()
	tr.recent[tr.recentPos] = t
	tr.recentPos = (tr.recentPos + 1) % len(tr.recent)
	if tr.recentLen < len(tr.recent) {
		tr.recentLen++
	}
	if tr.slowLen < len(tr.slowest) {
		tr.slowest[tr.slowLen] = t
		tr.slowLen++
	} else {
		min := 0
		for i := 1; i < tr.slowLen; i++ {
			if tr.slowest[i].Total < tr.slowest[min].Total {
				min = i
			}
		}
		if t.Total > tr.slowest[min].Total {
			tr.slowest[min] = t
		}
	}
	tr.mu.Unlock()
}

// StageHistogram returns stage s's latency histogram.
func (tr *Tracer) StageHistogram(s Stage) *Histogram { return &tr.hist[s] }

// TraceView is the JSON shape of one trace at /debug/traces. Stage
// durations are microseconds, omitting stages the request never entered.
type TraceView struct {
	ID          uint64             `json:"id"`
	TraceID     string             `json:"trace_id"`
	Route       string             `json:"route"`
	Status      int                `json:"status"`
	Start       time.Time          `json:"start"`
	TotalMicros float64            `json:"total_us"`
	Batch       int                `json:"batch_size,omitempty"`
	Model       uint64             `json:"model_version,omitempty"`
	Shed        string             `json:"shed_reason,omitempty"`
	Stages      map[string]float64 `json:"stages_us"`
}

func (t Trace) view() TraceView {
	v := TraceView{
		ID:          t.ID,
		TraceID:     t.Ctx.TraceIDString(),
		Route:       t.Route,
		Status:      t.Status,
		Start:       t.Start,
		TotalMicros: float64(t.Total) / float64(time.Microsecond),
		Batch:       t.Batch,
		Model:       t.Model,
		Shed:        t.Shed,
		Stages:      make(map[string]float64, NumStages),
	}
	for s := 0; s < NumStages; s++ {
		if d := t.Stages[s]; d > 0 {
			v.Stages[Stage(s).String()] = float64(d) / float64(time.Microsecond)
		}
	}
	return v
}

// TraceViews returns the most recent traces (newest first) and the
// slowest traces (slowest first) as JSON-ready views. This path may
// allocate freely — it serves /debug/traces, not the hot path.
func (tr *Tracer) TraceViews() (recent, slowest []TraceView) {
	tr.mu.Lock()
	rec := make([]Trace, 0, tr.recentLen)
	for i := 0; i < tr.recentLen; i++ {
		// Walk backwards from the last write so newest comes first.
		idx := (tr.recentPos - 1 - i + len(tr.recent)*2) % len(tr.recent)
		rec = append(rec, tr.recent[idx])
	}
	slow := append([]Trace(nil), tr.slowest[:tr.slowLen]...)
	tr.mu.Unlock()

	sort.Slice(slow, func(i, j int) bool { return slow[i].Total > slow[j].Total })
	recent = make([]TraceView, len(rec))
	for i, t := range rec {
		recent[i] = t.view()
	}
	slowest = make([]TraceView, len(slow))
	for i, t := range slow {
		slowest[i] = t.view()
	}
	return recent, slowest
}
