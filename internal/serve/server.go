package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hdfe/internal/chaos"
	"hdfe/internal/core"
	"hdfe/internal/obs"
	"hdfe/internal/obs/audit"
	"hdfe/internal/obs/export"
	"hdfe/internal/obs/prof"
	"hdfe/internal/obs/slo"
)

// DeadlineHeader is the request header carrying a client-side scoring
// budget in positive integer milliseconds; anything else is a 400. The
// effective per-request deadline is the smaller of this and the server's
// RequestTimeout, counted from the handler's start and checked on both
// scoring routes just before encode, so a request past its budget (a
// whole batch on /v1/score/batch) is shed with 504 without being encoded.
const DeadlineHeader = "X-Request-Deadline-Ms"

const (
	// maxBatchRecords caps records per /v1/score/batch call.
	maxBatchRecords = 4096
	// maxBodyBytes caps request body size.
	maxBodyBytes = 8 << 20
)

// Config tunes the scoring service. The zero value serves with the
// defaults noted on each field.
type Config struct {
	// ModelName is the boot model's name, reported by /healthz and
	// /v1/models (default "deployment").
	ModelName string
	// ModelPath is the boot model's backing artifact, if it was loaded
	// from a file. It enables SIGHUP/ReloadModel for the boot model and
	// is reported by /v1/models.
	ModelPath string
	// ModelSHA256 is the hex digest of the boot model's artifact bytes
	// (core.ReadFile computes it).
	ModelSHA256 string
	// RequestTimeout is each scoring request's budget (default 5s), see
	// DeadlineHeader; it also caps how long a queued shadow batch waits.
	RequestTimeout time.Duration
	// ShutdownTimeout bounds the HTTP drain on shutdown (default 10s).
	ShutdownTimeout time.Duration
	// MaxInFlight is the admission gate's record budget across both
	// scoring routes: requests beyond it are fast-rejected with 429 and
	// a Retry-After hint before any validation or encode work is spent.
	// Default 1024; negative disables the gate.
	MaxInFlight int
	// RetryAfter is the hint sent in the Retry-After header of 429/503
	// shed responses (default 1s; rendered in whole seconds, min 1).
	RetryAfter time.Duration
	// Chaos is the fault-injection seam (see internal/chaos). Nil — the
	// production configuration — costs one branch per injection point.
	Chaos *chaos.Injector
	// RejectMissing makes null feature values a validation error instead
	// of encoding them as the baseline codeword (the encode contract's
	// NaN rule, and the default behaviour).
	RejectMissing bool
	// RejectOutOfRange makes continuous values outside the fitted
	// [min, max] a validation error (with the value and bounds in the
	// body) instead of a clamp-and-warn.
	RejectOutOfRange bool
	// ShadowQueue bounds the lossy queue feeding the shadow scoring
	// worker, in batches (default 64). Each scoring request is one batch:
	// a /v1/score request queues one record, a /v1/score/batch request
	// all of its records.
	ShadowQueue int
	// Logger receives structured request logs (default: discard).
	Logger *slog.Logger
	// TraceBuffer sizes the /debug/traces rings: that many most-recent
	// and that many slowest traces are kept (default 64).
	TraceBuffer int
	// OTLPEndpoint is the OTLP/HTTP trace collector URL (e.g.
	// http://localhost:4318/v1/traces). Empty — the default — disables
	// span export entirely; the in-process tracer still feeds
	// /debug/traces and the stage histograms.
	OTLPEndpoint string
	// TraceSample is the head-sampling fraction of ordinary traces
	// exported on top of the always-kept slow, error, and shed traces
	// (default 0.01; negative keeps tail-sampled traces only).
	TraceSample float64
	// TraceSeed seeds generated W3C trace IDs, the head-sampling rolls,
	// and export retry jitter (default: wall clock; fix it in tests for
	// reproducible identities and sampling decisions).
	TraceSeed uint64
	// ExportQueue bounds the lossy span queue feeding the OTLP export
	// worker (default 1024 spans; overflow is dropped, never blocks).
	ExportQueue int
	// SLOTarget is the compliance target shared by the availability and
	// latency SLO objectives (default 0.999).
	SLOTarget float64
	// SLOLatency is the per-request latency objective the SLO engine
	// holds responses to (default 250ms).
	SLOLatency time.Duration
	// EnablePprof mounts net/http/pprof under /debug/pprof/. The profile
	// endpoint is routed through the continuous profiler, so a download
	// takes turns with the scheduled CPU captures and lands in the ring.
	EnablePprof bool
	// Prof tunes the continuous profiler and runtime watchdogs (see
	// internal/obs/prof). The profiler is always on; Prof.Interval < 0
	// disables scheduled captures and Prof.Watchdog.Disable turns the
	// watchdogs off. Seed, Logger, Chaos, and the model-version stamp
	// default to the server's own.
	Prof prof.Config
	// Audit is the decision audit trail (see internal/obs/audit): when
	// set, every score/shed/error/feedback/model-swap decision emits one
	// hash-chained wide event. The server takes ownership and closes the
	// log last on Close, after the shadow worker has drained. Nil — the
	// default — disables auditing at the cost of one branch per decision.
	Audit *audit.Log
}

func (c Config) withDefaults() Config {
	if c.ModelName == "" {
		c.ModelName = "deployment"
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 5 * time.Second
	}
	if c.ShutdownTimeout <= 0 {
		c.ShutdownTimeout = 10 * time.Second
	}
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 1024
	} else if c.MaxInFlight < 0 {
		c.MaxInFlight = 0 // explicit opt-out: unlimited
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.ShadowQueue <= 0 {
		c.ShadowQueue = 64
	}
	if c.Logger == nil {
		c.Logger = obs.NopLogger()
	}
	if c.TraceBuffer <= 0 {
		c.TraceBuffer = 64
	}
	if c.TraceSample == 0 {
		c.TraceSample = 0.01
	} else if c.TraceSample < 0 {
		c.TraceSample = 0
	}
	if c.TraceSeed == 0 {
		c.TraceSeed = uint64(time.Now().UnixNano())
	}
	if c.ExportQueue <= 0 {
		c.ExportQueue = 1024
	}
	// SLOTarget and SLOLatency zero-defaults live in slo.New.
	return c
}

// Server serves the HTTP scoring API described in the package comment
// and owns its models. The boot deployment becomes model version 1;
// further models arrive via POST /admin/models/load, SIGHUP (see
// cmd/hdserve), or the Load*/Adopt* lifecycle methods. Construct with
// New, mount via Handler (tests) or run with Serve (production), and
// always Close to stop scoring and drain the shadow worker.
type Server struct {
	cfg Config
	// active is the model every scoring request loads once and uses
	// throughout; a promote swaps it whole. The shadow slot lives on the
	// shadow scorer.
	active atomic.Pointer[model]
	swaps  atomic.Uint64 // promotes since boot; the boot model does not count
	// modelsMu guards the version counter and the adoption history: an
	// admin load and a SIGHUP reload can adopt concurrently.
	modelsMu    sync.Mutex
	nextVersion uint64
	loaded      []ModelInfo

	draining atomic.Bool // set first thing in Close: scoring routes answer 503
	shadow   *shadowScorer
	adm      *admission
	metrics  *Metrics
	tracer   *obs.Tracer
	exporter *export.Exporter // nil without an OTLPEndpoint
	sampler  *export.Sampler
	slo      *slo.Engine
	audit    *audit.Log // nil without Config.Audit
	profiler *prof.Profiler
	logger   *slog.Logger
	mux      *http.ServeMux
}

// New builds a server over the boot deployment. The deployment must be
// fitted; its codebook supplies the validation schema.
func New(dep *core.Deployment, cfg Config) *Server {
	cfg = cfg.withDefaults()
	m := NewMetrics()
	s := &Server{
		cfg:     cfg,
		metrics: m,
		tracer:  obs.NewTracerSeeded(cfg.TraceBuffer, cfg.TraceSeed),
		audit:   cfg.Audit,
		logger:  cfg.Logger,
		mux:     http.NewServeMux(),
	}
	s.slo = slo.New(slo.Config{
		Target:           cfg.SLOTarget,
		LatencyObjective: cfg.SLOLatency,
		OnTransition: func(objective, from, to string) {
			// Edge-triggered: one line per state change, warning on the way
			// into a burn, info on the way back to ok.
			lvl := slog.LevelWarn
			if to == slo.StateOK {
				lvl = slog.LevelInfo
			}
			cfg.Logger.LogAttrs(context.Background(), lvl, "slo state change",
				slog.String("objective", objective),
				slog.String("from", from),
				slog.String("to", to))
		},
	})
	if cfg.OTLPEndpoint != "" {
		s.exporter = export.New(export.Config{
			Endpoint:  cfg.OTLPEndpoint,
			Service:   "hdserve",
			QueueSize: cfg.ExportQueue,
			Seed:      cfg.TraceSeed,
		})
	}
	// Slow-trace cutoff for tail sampling: the live p99 latency — any
	// trace at or past it is always exported, whatever the head fraction.
	s.sampler = export.NewSampler(cfg.TraceSample, cfg.TraceSeed,
		func() time.Duration { return m.latency.Quantile(0.99) })
	// Publish the boot model before serving: every scoring path assumes
	// the active slot is never empty. A plain store, not promote, so boot
	// logs no swap, audits no model_swap event and counts no swap.
	s.active.Store(s.adopt(dep, cfg.ModelName, cfg.ModelPath, cfg.ModelSHA256))
	// The continuous profiler inherits the server's seed, logger, and
	// chaos seam unless the caller overrode them, and stamps captures with
	// the live model version so a hot-spot shift ties to a hot-swap.
	pc := cfg.Prof
	if pc.Seed == 0 {
		pc.Seed = cfg.TraceSeed
	}
	if pc.Logger == nil {
		pc.Logger = cfg.Logger
	}
	if pc.Chaos == nil {
		pc.Chaos = cfg.Chaos
	}
	if pc.Version == nil {
		pc.Version = func() uint64 { return s.active.Load().info.Version }
	}
	s.profiler = prof.New(pc)
	s.profiler.Start()
	s.adm = newAdmission(cfg.MaxInFlight, cfg.RetryAfter)
	s.shadow = newShadowScorer(cfg.ShadowQueue, cfg.RequestTimeout, cfg.Chaos, s.exporter)
	s.mux.HandleFunc("/v1/score", s.traced("score", s.handleScore))
	s.mux.HandleFunc("/v1/score/batch", s.traced("score_batch", s.handleScoreBatch))
	s.mux.HandleFunc("/v1/feedback", s.handleFeedback)
	s.mux.HandleFunc("/v1/models", readOnly(s.handleModels))
	s.mux.HandleFunc("/admin/models/load", s.handleLoadModel)
	s.mux.HandleFunc("/healthz", readOnly(s.handleHealthz))
	s.mux.HandleFunc("/metrics", readOnly(s.handleMetricsProm))
	s.mux.HandleFunc("/debug/traces", readOnly(s.handleTraces))
	s.mux.HandleFunc("/debug/slo", readOnly(s.handleSLO))
	s.mux.HandleFunc("/debug/drift", readOnly(s.handleDriftDebug))
	s.mux.HandleFunc("/debug/audit", readOnly(s.handleAuditDebug))
	s.mux.HandleFunc("/debug/prof", readOnly(s.handleProfIndex))
	s.mux.HandleFunc("/debug/prof/", readOnly(s.handleProfDownload))
	if cfg.EnablePprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		// profile goes through the continuous profiler: a stdlib CPU
		// capture would collide with the scheduled profiler's (the runtime
		// allows one at a time).
		s.mux.HandleFunc("/debug/pprof/profile", s.handlePprofProfile)
	}
	return s
}

// Profiler exposes the continuous profiler (tests and embedding).
func (s *Server) Profiler() *prof.Profiler { return s.profiler }

// Handler returns the routing handler (for httptest and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics exposes the server's counters.
func (s *Server) Metrics() *Metrics { return s.metrics }

// Tracer exposes the server's pipeline tracer.
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// Close stops accepting scoring requests (both scoring routes answer 503
// from then on), then drains and stops the shadow worker, then the span
// exporter (in that order: the shadow worker may still emit
// disagreement spans while draining), and finally the audit log — last,
// so every decision the drained handlers emitted still reaches the
// chain. Call after the HTTP listener has stopped accepting requests
// (Serve does this in order).
func (s *Server) Close() {
	s.draining.Store(true)
	// Profiler next: it interrupts any in-flight capture immediately and
	// restores the process-global mutex/block profiling rates.
	s.profiler.Close()
	s.shadow.close()
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.ShutdownTimeout)
	defer cancel()
	s.exporter.Shutdown(ctx)
	s.audit.Close()
}

// Serve runs the service on ln until ctx is cancelled, then shuts down
// gracefully: the HTTP server closes the listener, so new connections are
// refused, and waits for in-flight handlers (bounded by ShutdownTimeout);
// only then does Close run — so every accepted request is scored and
// answered before Serve returns.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	srv := &http.Server{Handler: s.mux}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		s.Close()
		return err
	case <-ctx.Done():
	}
	shCtx, cancel := context.WithTimeout(context.Background(), s.cfg.ShutdownTimeout)
	defer cancel()
	err := srv.Shutdown(shCtx)
	s.Close()
	if serveErr := <-errc; serveErr != nil && !errors.Is(serveErr, http.ErrServerClosed) {
		return serveErr
	}
	return err
}

// statusWriter captures the response status for tracing and logging.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// traced wraps a scoring handler in the pipeline tracer and the request
// logger: every request gets a trace ID, a per-stage span record folded
// into the stage histograms and trace rings, and one structured log line
// carrying the version of the model that scored it. A 200's total time
// feeds the request latency histogram, its trace ID the exemplar.
//
// W3C trace context flows through here: a valid inbound traceparent is
// adopted (same trace ID, upstream span as parent), anything malformed
// falls back to a freshly generated identity, and the resulting
// traceparent is echoed on every response — set before the handler
// runs, so 429/504 shed paths carry it too. After the response, the
// request outcome feeds the SLO engine, and the tail sampler decides
// whether the trace ships to the OTLP exporter.
func (s *Server) traced(route string, h func(http.ResponseWriter, *http.Request, *obs.ActiveTrace)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		parent, _ := obs.ParseTraceparent(r.Header.Get("traceparent"))
		if parent.Valid() {
			parent.State = r.Header.Get("tracestate")
		}
		at := s.tracer.StartWith(route, parent)
		tc := at.Context()
		hdr := w.Header()
		hdr.Set("traceparent", tc.Traceparent())
		if tc.State != "" {
			hdr.Set("tracestate", tc.State)
		}
		// Echo a client-supplied request ID (gateways correlate on it),
		// otherwise mint one from the trace sequence.
		reqID := r.Header.Get("X-Request-Id")
		if reqID == "" {
			reqID = requestID(at.ID())
		}
		hdr.Set("X-Request-Id", reqID)
		sw := statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(&sw, r, at)
		t := at.Finish(sw.status)
		if t.Status == http.StatusOK {
			s.metrics.latency.Observe(t.Total, t.Ctx.TraceIDString())
		}
		s.slo.Observe(t.Status, t.Total)
		if s.exporter != nil {
			if keep, _ := s.sampler.Keep(t); keep {
				for _, sp := range export.FromTrace(t) {
					s.exporter.Enqueue(sp)
				}
			}
		}
		// A 2xx line logs at Debug: the audit event and /debug/traces
		// already carry its fields, and at Info it cost ~5% of server CPU
		// under paced load.
		lvl := slog.LevelDebug
		switch {
		case t.Status >= 500:
			lvl = slog.LevelError
		case t.Status >= 400:
			lvl = slog.LevelWarn
		}
		s.logger.LogAttrs(r.Context(), lvl, "request",
			slog.Uint64("trace_id", t.ID),
			slog.String("w3c_trace_id", t.Ctx.TraceIDString()),
			slog.String("route", route),
			slog.Int("status", t.Status),
			slog.Duration("latency", t.Total),
			slog.Int("batch", t.Batch),
			slog.Uint64("model_version", t.Model),
		)
	}
}

// scoreResponse is the body of a successful POST /v1/score. RequestID
// is the handle /v1/feedback joins a delayed ground-truth label with.
// ModelVersion is the version of the model that scored the
// record — under hot-swapping, the authoritative attribution for the
// score.
type scoreResponse struct {
	RequestID    string               `json:"request_id"`
	Score        float64              `json:"score"`
	Prediction   int                  `json:"prediction"`
	ModelVersion uint64               `json:"model_version"`
	Warnings     []string             `json:"warnings,omitempty"`
	Explain      []audit.Contribution `json:"explain,omitempty"`
}

// recordWarnings attaches clamping warnings to a record index.
type recordWarnings struct {
	Index    int      `json:"index"`
	Warnings []string `json:"warnings"`
}

// batchScoreResponse is the body of a successful POST /v1/score/batch,
// which appendBatchResponse writes without reflection. RequestIDs
// carries one feedback handle per record, aligned with Scores.
type batchScoreResponse struct {
	RequestIDs   []string         `json:"request_ids"`
	Scores       []float64        `json:"scores"`
	Predictions  []int            `json:"predictions"`
	ModelVersion uint64           `json:"model_version"`
	Warnings     []recordWarnings `json:"warnings,omitempty"`
}

// errorResponse is every non-2xx body. TraceID is the request's W3C
// trace ID on traced (scoring) routes, so a client holding a rejection
// body can find the exact trace behind it without parsing headers.
type errorResponse struct {
	Error   string       `json:"error"`
	TraceID string       `json:"trace_id,omitempty"`
	Details []FieldError `json:"details,omitempty"`
	Record  int          `json:"record,omitempty"`
}

// traceIDOf extracts the hex trace ID for error bodies; empty for
// untraced routes (nil at).
func traceIDOf(at *obs.ActiveTrace) string {
	if tc := at.Context(); tc.Valid() {
		return tc.TraceIDString()
	}
	return ""
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v) // the client is gone if this fails; nothing to do
}

func (s *Server) writeError(w http.ResponseWriter, at *obs.ActiveTrace, status int, msg string, details []FieldError, record int) {
	if status == http.StatusBadRequest && details != nil {
		s.metrics.validationErrs.Add(1)
	} else {
		s.metrics.errors.Add(1)
	}
	s.auditOutcome(at, audit.OutcomeError, msg)
	writeJSON(w, status, errorResponse{Error: msg, TraceID: traceIDOf(at), Details: details, Record: record})
}

// readScoring reads and parses the body of a scoring route, answering 413
// past the size limit and 400 for a malformed body itself. The caller
// releases the body once nothing uses its rows.
func (s *Server) readScoring(w http.ResponseWriter, r *http.Request, at *obs.ActiveTrace, batch bool) *scoringBody {
	b, err := readScoringBody(w, r)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.writeError(w, at, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds the %d-byte limit", tooLarge.Limit), nil, 0)
		} else {
			s.writeError(w, at, http.StatusBadRequest, "reading request body: "+err.Error(), nil, 0)
		}
		return nil
	}
	if err := b.parse(batch); err != nil {
		b.release()
		s.writeError(w, at, http.StatusBadRequest, "malformed request body: "+err.Error(), nil, 0)
		return nil
	}
	return b
}

// decode reads a JSON request body of a route whose cost is per request,
// not per record, with encoding/json.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, at *obs.ActiveTrace, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		s.writeError(w, at, http.StatusBadRequest, "malformed request body: "+err.Error(), nil, 0)
		return false
	}
	return true
}

func requireMethod(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method != method {
		w.Header().Set("Allow", method)
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "use " + method})
		return false
	}
	return true
}

// handleScore scores one record on the handler goroutine. The active
// model is loaded once, so validation, warnings, the score, ?explain,
// drift observation and the audit event all use the same version, even
// when a promote replaces it mid-request.
func (s *Server) handleScore(w http.ResponseWriter, r *http.Request, at *obs.ActiveTrace) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	start := time.Now()
	s.metrics.scoreRequests.Add(1)
	budget, err := s.requestBudget(r)
	if err != nil {
		s.writeError(w, at, http.StatusBadRequest, err.Error(), nil, 0)
		return
	}
	explainK, err := parseExplain(r)
	if err != nil {
		s.writeError(w, at, http.StatusBadRequest, err.Error(), nil, 0)
		return
	}
	// Admission before reading the body, validation, and encode: a shed
	// request must cost a counter bump and a tiny JSON body, nothing more.
	if !s.adm.tryAcquire(1) {
		s.shed(w, at, http.StatusTooManyRequests, ShedQueueFull, "server overloaded")
		return
	}
	defer s.adm.release(1)
	body := s.readScoring(w, r, at, false)
	if body == nil {
		return
	}
	defer body.release()
	if s.draining.Load() {
		s.shed(w, at, http.StatusServiceUnavailable, ShedDraining, "server shutting down")
		return
	}
	m := s.active.Load()
	row := body.rows[0]
	warnings, err := m.val.Validate(row)
	at.Step(obs.StageValidate)
	if err != nil {
		var verr *ValidationError
		if errors.As(err, &verr) {
			s.writeError(w, at, http.StatusBadRequest, "invalid record", verr.Fields, 0)
		} else {
			s.writeError(w, at, http.StatusBadRequest, err.Error(), nil, 0)
		}
		return
	}
	if !s.readyToEncode(w, at, start, budget) {
		return
	}
	score := s.scoreRows(m, body.rows, at)[0]
	at.SetModel(m.info.Version)
	resp := scoreResponse{RequestID: requestID(at.ID()), Score: score, ModelVersion: m.info.Version, Warnings: warnings}
	if score >= 0.5 {
		resp.Prediction = 1
	}
	if explainK > 0 {
		resp.Explain = explainTopK(m.dep.Extractor.ExplainRecord(row), explainK)
	}
	m.drift.observeRows(body.rows)
	m.drift.scores.Observe(score)
	m.drift.quality.RecordBatch(scoreKey(at.ID()), []int{resp.Prediction})
	writeJSON(w, http.StatusOK, resp)
	at.Step(obs.StageRespond)
	s.auditScored(at, m, row, resp, 0)
}

// handleScoreBatch scores an already-batched request directly through
// the active model — the client-side batching fast path. The model is
// loaded once for the whole request: validation, scoring, and
// attribution all see the same version, even when a promote replaces it
// mid-batch.
func (s *Server) handleScoreBatch(w http.ResponseWriter, r *http.Request, at *obs.ActiveTrace) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	start := time.Now()
	s.metrics.batchRequests.Add(1)
	budget, err := s.requestBudget(r)
	if err != nil {
		s.writeError(w, at, http.StatusBadRequest, err.Error(), nil, 0)
		return
	}
	// Unlike /v1/score, the body is read and parsed before admission: the
	// gate counts records, and only the body says how many.
	body := s.readScoring(w, r, at, true)
	if body == nil {
		return
	}
	defer body.release()
	rows := body.rows
	if len(rows) == 0 {
		s.writeError(w, at, http.StatusBadRequest, "empty records", nil, 0)
		return
	}
	if len(rows) > maxBatchRecords {
		s.writeError(w, at, http.StatusBadRequest,
			fmt.Sprintf("%d records exceeds the %d-record batch limit", len(rows), maxBatchRecords), nil, 0)
		return
	}
	if s.draining.Load() {
		s.shed(w, at, http.StatusServiceUnavailable, ShedDraining, "server shutting down")
		return
	}
	// Admission by record count: one oversized batch admits on an idle
	// server, but concurrent batches cannot stack unbounded encode work.
	n := int64(len(rows))
	if !s.adm.tryAcquire(n) {
		s.shed(w, at, http.StatusTooManyRequests, ShedQueueFull, "server overloaded")
		return
	}
	defer s.adm.release(n)
	m := s.active.Load()
	at.SetModel(m.info.Version)
	var allWarnings []recordWarnings
	for i, row := range rows {
		warnings, err := m.val.Validate(row)
		if err != nil {
			var verr *ValidationError
			if errors.As(err, &verr) {
				s.writeError(w, at, http.StatusBadRequest, fmt.Sprintf("invalid record %d", i), verr.Fields, i)
			} else {
				s.writeError(w, at, http.StatusBadRequest, err.Error(), nil, i)
			}
			return
		}
		if len(warnings) > 0 {
			allWarnings = append(allWarnings, recordWarnings{Index: i, Warnings: warnings})
		}
	}
	m.drift.observeRows(rows)
	at.Step(obs.StageValidate)
	if !s.readyToEncode(w, at, start, budget) {
		return
	}
	scores := s.scoreRows(m, rows, at)
	preds := make([]int, len(scores))
	for i, sc := range scores {
		if sc >= 0.5 {
			preds[i] = 1
		}
	}
	seq := at.ID()
	m.drift.scores.Observe(scores...)
	m.drift.quality.RecordBatch(batchKey(seq), preds)
	// The rows were parsed out of the body's buffer, so the response is
	// built in it.
	body.raw = appendBatchResponse(body.raw[:0], seq, scores, preds, m.info.Version, allWarnings)
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body.raw)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body.raw) // the client is gone if this fails; nothing to do
	at.Step(obs.StageRespond)
	// One audit event per record: each is an independent clinical
	// decision with its own feedback handle.
	if s.audit != nil {
		for i, row := range rows {
			s.auditScored(at, m, row, scoreResponse{RequestID: batchRequestID(seq, i), Score: scores[i], Prediction: preds[i]}, len(rows))
		}
	}
}

// appendBatchResponse appends to b the body of a successful
// /v1/score/batch: byte for byte what json.NewEncoder(w).Encode writes
// for the batchScoreResponse of request seq, without reflection and
// without building its request ID strings. scores is not empty, and
// every score is finite (ClassAffinity lies in [0, 1]).
func appendBatchResponse(b []byte, seq uint64, scores []float64, preds []int, version uint64, warnings []recordWarnings) []byte {
	b = append(b, `{"request_ids":[`...)
	for i := range scores {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(strconv.AppendUint(append(b, '"'), seq, 10), '-')
		b = append(strconv.AppendInt(b, int64(i), 10), '"')
	}
	b = append(b, `],"scores":[`...)
	for i, sc := range scores {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONFloat(b, sc)
	}
	b = append(b, `],"predictions":[`...)
	for i, p := range preds {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(p), 10)
	}
	b = strconv.AppendUint(append(b, `],"model_version":`...), version, 10)
	if len(warnings) > 0 {
		// Rare (clamped values only), so encoding/json writes them, with
		// its string escaping.
		wj, _ := json.Marshal(warnings)
		b = append(append(b, `,"warnings":`...), wj...)
	}
	return append(b, "}\n"...)
}

// appendJSONFloat appends f as encoding/json writes a float64: the
// shortest 'f' form, or 'e' below 1e-6 and from 1e21 up with a one-digit
// exponent written without its leading zero (e-07 as e-7).
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// readyToEncode is the last step of both scoring routes before encode:
// the chaos score stall, the stage clock's switch to encode, and the
// deadline check. A request already past its budget is shed with 504,
// counted as hdfe_shed_total{reason="deadline"}, audited as one shed
// event and never encoded; readyToEncode then reports false.
func (s *Server) readyToEncode(w http.ResponseWriter, at *obs.ActiveTrace, start time.Time, budget time.Duration) bool {
	// Fault seam: a configured stall lands at the start of the encode
	// stage and before the deadline check, so a stalled request shows the
	// stall under encode and is shed without being encoded.
	_ = s.cfg.Chaos.Inject(chaos.PointScore)
	at.Step(obs.StageEncode)
	if time.Since(start) <= budget {
		return true
	}
	at.SetShed(ShedDeadline.String())
	s.metrics.Shed(ShedDeadline)
	s.auditOutcome(at, audit.OutcomeShed, ShedDeadline.String())
	writeJSON(w, http.StatusGatewayTimeout, errorResponse{Error: "scoring timed out", TraceID: traceIDOf(at)})
	return false
}

// scoreRows scores validated rows with m, books the encode and score
// time on the trace, hands a copy to the shadow comparison and counts the
// records. Both scoring routes score through it.
func (s *Server) scoreRows(m *model, rows [][]float64, at *obs.ActiveTrace) []float64 {
	var acc obs.StageAccum
	scores := m.dep.ScoreBatchIntoObserved(rows, nil, &acc)
	// Every record shares the request's trace context, so a shadow
	// disagreement on any of them joins this trace.
	s.shadow.submit(rows, scores, at.Context())
	enc, dist, _ := acc.Totals()
	at.Add(obs.StageEncode, enc)
	at.Add(obs.StageScore, dist)
	at.SetBatch(len(rows))
	at.Mark()
	s.metrics.recordsScored.Add(uint64(len(rows)))
	return scores
}

// requestBudget resolves one request's end-to-end scoring budget: the
// configured RequestTimeout, tightened — never widened — by the client's
// DeadlineHeader when present.
func (s *Server) requestBudget(r *http.Request) (time.Duration, error) {
	h := r.Header.Get(DeadlineHeader)
	if h == "" {
		return s.cfg.RequestTimeout, nil
	}
	ms, err := strconv.ParseInt(h, 10, 64)
	if err != nil || ms <= 0 {
		return 0, fmt.Errorf("invalid %s header %q: want positive integer milliseconds", DeadlineHeader, h)
	}
	if d := time.Duration(ms) * time.Millisecond; d < s.cfg.RequestTimeout {
		return d, nil
	}
	return s.cfg.RequestTimeout, nil
}

// handleHealthz reports liveness and the active model's identity. After
// Close it answers 503 with status "draining"; under Serve the listener
// is already closed by then, so only an embedder still routing to
// Handler sees it.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	m := s.active.Load()
	status, code := "ok", http.StatusOK
	if s.draining.Load() {
		status, code = "draining", http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{
		"status":        status,
		"model":         m.info.Name,
		"model_version": m.info.Version,
		"dim":           m.info.Dim,
		"features":      m.val.FeatureNames(),
	})
}

// handleTraces serves the tracer's rings: the most recent and the
// slowest requests, each with a per-stage breakdown in microseconds and
// its attribution (W3C trace ID, batch size, model version, shed
// reason).
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	recent, slowest := s.tracer.TraceViews()
	writeJSON(w, http.StatusOK, map[string]any{
		"recent":  recent,
		"slowest": slowest,
	})
}

// handleSLO serves the burn-rate engine's compliance snapshot: target,
// error budget, per-window availability/latency compliance and burn
// rates, and the edge-triggered burn state per objective.
func (s *Server) handleSLO(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.slo.Snapshot())
}
