package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"time"

	"hdfe/internal/chaos"
	"hdfe/internal/core"
	"hdfe/internal/obs"
	"hdfe/internal/obs/audit"
	"hdfe/internal/obs/export"
	"hdfe/internal/obs/prof"
	"hdfe/internal/obs/slo"
	"hdfe/internal/registry"
)

// DeadlineHeader is the request header carrying a client-side scoring
// budget in integer milliseconds. The effective per-request deadline is
// the smaller of this and the server's RequestTimeout, propagated through
// context.Context into the batcher so a record past its budget is
// abandoned before encode/score work is spent on it.
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
	// (registry.ReadFile computes it).
	ModelSHA256 string
	// MaxBatch caps microbatch size (default 32).
	MaxBatch int
	// MaxWait is how long an open microbatch waits for more requests
	// before scoring (default 2ms; 0 keeps batching purely opportunistic).
	MaxWait time.Duration
	// RequestTimeout bounds one request end to end (default 5s).
	RequestTimeout time.Duration
	// ShutdownTimeout bounds the HTTP drain on shutdown (default 10s).
	ShutdownTimeout time.Duration
	// MaxInFlight is the admission gate's record budget across both
	// scoring routes: requests beyond it are fast-rejected with 429 and
	// a Retry-After hint before any validation or encode work is spent.
	// Default 1024; negative disables the gate.
	MaxInFlight int
	// QueueDepth is the batcher queue capacity. Default
	// max(4*MaxBatch, MaxInFlight), so the admission gate — not the
	// queue — is what bounds backlog and a submit never blocks on enqueue.
	QueueDepth int
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
	// PSIWarn is the per-feature PSI above which input drift is logged
	// (default 0.25, the conventional "significant shift" threshold).
	PSIWarn float64
	// ClampWarn is the per-feature out-of-range ratio above which
	// clamping is logged (default 0.01).
	ClampWarn float64
	// ScoreWindow sizes the rolling score window for prediction drift
	// (default 4096).
	ScoreWindow int
	// FeedbackCapacity bounds the prediction ring /v1/feedback joins
	// against (default 4096).
	FeedbackCapacity int
	// QualityWindow bounds the rolling labeled-outcome window the canary
	// judges (default 1024).
	QualityWindow int
	// QualityTolerance is how far rolling accuracy may fall below the
	// deployment's LOOCV baseline before the canary degrades
	// (default 0.05).
	QualityTolerance float64
	// ShadowQueue bounds the lossy queue feeding the shadow scoring
	// worker, in batches (default 64).
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
	// and trace endpoints are served by context-aware replacements routed
	// through the continuous profiler, so a cancelled download stops the
	// capture instead of running its full window.
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
	// log last on Close, after the batcher and shadow worker have
	// drained. Nil — the default — disables auditing at the cost of one
	// branch per decision.
	Audit *audit.Log
}

func (c Config) withDefaults() Config {
	if c.ModelName == "" {
		c.ModelName = "deployment"
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.MaxWait == 0 {
		c.MaxWait = 2 * time.Millisecond
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
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.MaxBatch
		if c.MaxInFlight > c.QueueDepth {
			c.QueueDepth = c.MaxInFlight
		}
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.PSIWarn <= 0 {
		c.PSIWarn = 0.25
	}
	if c.ClampWarn <= 0 {
		c.ClampWarn = 0.01
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

// Server wires the model registry behind the HTTP scoring API described
// in the package comment. The boot scorer becomes registry version 1;
// further models arrive via POST /admin/models/load, SIGHUP (see
// cmd/hdserve), or the Load*/Adopt* lifecycle methods. Construct with
// New, mount via Handler (tests) or run with Serve (production), and
// always Close to drain the batcher and the shadow worker.
type Server struct {
	cfg      Config
	reg      *registry.Registry
	batcher  *Batcher
	shadow   *shadowScorer
	adm      *admission
	metrics  *Metrics
	tracer   *obs.Tracer
	exporter *export.Exporter // nil without an OTLPEndpoint
	sampler  *export.Sampler
	slo      *slo.Engine
	audit    *audit.Log // nil without Config.Audit
	profiler *prof.Profiler
	rtMu     sync.Mutex // serializes rtColl across concurrent scrapes
	rtColl   *prof.Collector
	logger   *slog.Logger
	mux      *http.ServeMux
}

// New builds a server over the boot scorer (typically a
// *core.Deployment). The scorer must be fitted; its codebook supplies
// the validation schema.
func New(sc core.Scorer, cfg Config) *Server {
	cfg = cfg.withDefaults()
	m := NewMetrics()
	s := &Server{
		cfg:     cfg,
		reg:     registry.New(),
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
			Chaos:     cfg.Chaos,
		})
	}
	// Slow-trace cutoff for tail sampling: the live p99 latency — any
	// trace at or past it is always exported, whatever the head fraction.
	s.sampler = export.NewSampler(cfg.TraceSample, cfg.TraceSeed,
		func() time.Duration { return m.quantile(0.99) })
	// Adopt and promote the boot model before the batcher starts: the
	// batch loop assumes the active slot is never empty.
	s.reg.Promote(s.adopt(sc, cfg.ModelName, cfg.ModelPath, cfg.ModelSHA256))
	// The continuous profiler inherits the server's seed, logger, and
	// chaos seam unless the caller overrode them, and stamps captures with
	// the live registry version so a hot-spot shift ties to a hot-swap.
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
		pc.Version = func() uint64 { return s.reg.Active().Info().Version }
	}
	s.profiler = prof.New(pc)
	s.rtColl = prof.NewCollector()
	s.profiler.Start()
	s.adm = newAdmission(cfg.MaxInFlight, cfg.RetryAfter)
	s.shadow = newShadowScorer(s.reg, cfg.ShadowQueue, cfg.RequestTimeout, cfg.Chaos, s.exporter)
	s.batcher = newBatcher(s.reg, cfg.MaxBatch, cfg.MaxWait, cfg.QueueDepth, m, s.shadow, cfg.Chaos)
	s.mux.HandleFunc("/v1/score", s.traced("score", s.handleScore))
	s.mux.HandleFunc("/v1/score/batch", s.traced("score_batch", s.handleScoreBatch))
	s.mux.HandleFunc("/v1/feedback", s.handleFeedback)
	s.mux.HandleFunc("/v1/models", readOnly(s.handleModels))
	s.mux.HandleFunc("/admin/models/load", s.handleLoadModel)
	s.mux.HandleFunc("/healthz", readOnly(s.handleHealthz))
	s.mux.HandleFunc("/metrics", readOnly(s.handleMetricsProm))
	s.mux.HandleFunc("/metrics.json", readOnly(s.handleMetricsJSON))
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
		// profile and trace go through context-aware replacements: the
		// stdlib handlers run their full sampling window even after the
		// client hangs up, and a stdlib CPU capture would collide with the
		// scheduled profiler's (the runtime allows one at a time).
		s.mux.HandleFunc("/debug/pprof/profile", s.handlePprofProfile)
		s.mux.HandleFunc("/debug/pprof/trace", s.handlePprofTrace)
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

// Close drains and stops the microbatcher, then the shadow worker, then
// the span exporter (in that order: the shadow worker may still emit
// disagreement spans while draining), and finally the audit log — last,
// so every decision the drained handlers emitted still reaches the
// chain. Call after the HTTP listener has stopped accepting requests
// (Serve does this in order).
func (s *Server) Close() {
	// Profiler first: it interrupts any in-flight capture immediately and
	// restores the process-global mutex/block profiling rates.
	s.profiler.Close()
	s.batcher.Close()
	s.shadow.close()
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.ShutdownTimeout)
	defer cancel()
	s.exporter.Shutdown(ctx)
	s.audit.Close()
}

// Serve runs the service on ln until ctx is cancelled, then shuts down
// gracefully: the HTTP server drains in-flight handlers (bounded by
// ShutdownTimeout), and only then the batcher closes — so every accepted
// request is scored and answered before Serve returns.
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
// carrying the version of the model that scored it.
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
		// Fault seam: injected request-entry latency (a slow proxy, an
		// accept-queue spike) lands before the trace clock starts, like
		// real upstream delay would.
		_ = s.cfg.Chaos.Inject(chaos.PointHTTP)
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
		s.slo.Observe(t.Status, t.Total)
		if s.exporter != nil {
			if keep, _ := s.sampler.Keep(t); keep {
				for _, sp := range export.FromTrace(t) {
					s.exporter.Enqueue(sp)
				}
			}
		}
		lvl := slog.LevelInfo
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

// scoreRequest is the body of POST /v1/score. Features are positional,
// matching the fitted schema; null means missing.
type scoreRequest struct {
	Features []*float64 `json:"features"`
}

// scoreResponse is the body of a successful POST /v1/score. RequestID
// is the handle /v1/feedback joins a delayed ground-truth label with.
// ModelVersion is the registry version of the model that scored the
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

// batchScoreRequest is the body of POST /v1/score/batch.
type batchScoreRequest struct {
	Records [][]*float64 `json:"records"`
}

// recordWarnings attaches clamping warnings to a record index.
type recordWarnings struct {
	Index    int      `json:"index"`
	Warnings []string `json:"warnings"`
}

// batchScoreResponse is the body of a successful POST /v1/score/batch.
// RequestIDs carries one feedback handle per record, aligned with Scores.
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

// handleScore scores one record through the microbatcher. Validation
// uses the currently active model's schema; scoring uses whatever model
// is active when the batch forms (the schemas are identical — checkSchema
// gates every load). All drift/quality attribution goes to the model
// that actually scored the record.
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
	// Admission before decode, validation, and encode: a shed request
	// must cost a counter bump and a tiny JSON body, nothing more.
	if !s.adm.tryAcquire(1) {
		s.shed(w, at, http.StatusTooManyRequests, ShedQueueFull, "server overloaded")
		return
	}
	defer s.adm.release(1)
	var req scoreRequest
	if !s.decode(w, r, at, &req) {
		return
	}
	tValidate := time.Now()
	row, warnings, err := s.activeState().val.Validate(req.Features, nil)
	validateDur := time.Since(tValidate)
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
	ctx, cancel := context.WithTimeout(r.Context(), budget)
	defer cancel()
	score, bt, st, err := s.batcher.submitTimed(ctx, row, at.Context())
	switch {
	case errors.Is(err, ErrClosed):
		s.shed(w, at, http.StatusServiceUnavailable, ShedDraining, "server shutting down")
		return
	case errors.Is(err, ErrQueueFull):
		s.shed(w, at, http.StatusTooManyRequests, ShedQueueFull, "server overloaded")
		return
	case errors.Is(err, context.DeadlineExceeded):
		// The whole budget went to queueing — attribute it to batch_wait
		// so /debug/traces shows where timed-out requests spent their
		// time, then answer 504.
		at.Step(obs.StageBatchWait)
		at.SetShed(ShedDeadline.String())
		s.metrics.timeouts.Add(1)
		s.auditOutcome(at, audit.OutcomeShed, ShedDeadline.String())
		writeJSON(w, http.StatusGatewayTimeout, errorResponse{Error: "scoring timed out", TraceID: traceIDOf(at)})
		return
	case err != nil:
		s.metrics.errors.Add(1)
		s.auditOutcome(at, audit.OutcomeError, err.Error())
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error(), TraceID: traceIDOf(at)})
		return
	}
	// The batcher measured where the submit interval actually went; fold
	// its breakdown in and restart the stage clock for the response.
	at.Add(obs.StageBatchWait, bt.Wait)
	at.Add(obs.StageEncode, bt.Encode)
	at.Add(obs.StageScore, bt.Distance)
	at.SetBatch(bt.Size)
	at.SetModel(st.version())
	at.Mark()
	s.metrics.recordsScored.Add(1)
	resp := scoreResponse{RequestID: requestID(at.ID()), Score: score, ModelVersion: st.version(), Warnings: warnings}
	if score >= 0.5 {
		resp.Prediction = 1
	}
	if explainK > 0 {
		// Explain against the same modelState that scored the record, so
		// the contributions (and the audit event) attribute to the exact
		// model version even when a hot-swap landed mid-request.
		resp.Explain = explainTopK(st.scorer.Explain(row), explainK)
	}
	st.drift.observeRow(row)
	st.drift.scores.Observe(score)
	st.drift.quality.Record(resp.RequestID, resp.Prediction)
	writeJSON(w, http.StatusOK, resp)
	at.Step(obs.StageRespond)
	s.auditScored(at, st, row, resp, audit.Stages{
		ValidateUs:  validateDur.Microseconds(),
		BatchWaitUs: bt.Wait.Microseconds(),
		EncodeUs:    bt.Encode.Microseconds(),
		ScoreUs:     bt.Distance.Microseconds(),
	}, bt.Size)
	s.metrics.ObserveLatencyTrace(time.Since(start), traceIDOf(at))
}

// handleScoreBatch scores an already-batched request directly through
// the active scorer — it is the client-side batching fast path and does
// not pass through the microbatcher. The model is acquired once for the
// whole request: validation, scoring, and attribution all see the same
// version, and a concurrent promote retires the old model only after
// this batch finishes.
func (s *Server) handleScoreBatch(w http.ResponseWriter, r *http.Request, at *obs.ActiveTrace) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	start := time.Now()
	s.metrics.batchRequests.Add(1)
	var req batchScoreRequest
	if !s.decode(w, r, at, &req) {
		return
	}
	if len(req.Records) == 0 {
		s.writeError(w, at, http.StatusBadRequest, "empty records", nil, 0)
		return
	}
	if len(req.Records) > maxBatchRecords {
		s.writeError(w, at, http.StatusBadRequest,
			fmt.Sprintf("%d records exceeds the %d-record batch limit", len(req.Records), maxBatchRecords), nil, 0)
		return
	}
	if s.batcher.Draining() {
		s.shed(w, at, http.StatusServiceUnavailable, ShedDraining, "server shutting down")
		return
	}
	// Admission by record count: one oversized batch admits on an idle
	// server, but concurrent batches cannot stack unbounded encode work.
	n := int64(len(req.Records))
	if !s.adm.tryAcquire(n) {
		s.shed(w, at, http.StatusTooManyRequests, ShedQueueFull, "server overloaded")
		return
	}
	defer s.adm.release(n)
	st := s.acquireActive()
	defer st.release()
	at.SetModel(st.version())
	rows := make([][]float64, len(req.Records))
	var allWarnings []recordWarnings
	for i, rec := range req.Records {
		row, warnings, err := st.val.Validate(rec, nil)
		if err != nil {
			var verr *ValidationError
			if errors.As(err, &verr) {
				s.writeError(w, at, http.StatusBadRequest, fmt.Sprintf("invalid record %d", i), verr.Fields, i)
			} else {
				s.writeError(w, at, http.StatusBadRequest, err.Error(), nil, i)
			}
			return
		}
		rows[i] = row
		if len(warnings) > 0 {
			allWarnings = append(allWarnings, recordWarnings{Index: i, Warnings: warnings})
		}
	}
	for _, row := range rows {
		st.drift.observeRow(row)
	}
	at.Step(obs.StageValidate)
	var acc obs.StageAccum
	scores := st.scorer.ScoreBatchIntoObserved(rows, nil, &acc)
	// Every record in a client-side batch shares the request's trace
	// context, so a shadow disagreement on any of them joins this trace.
	tcs := make([]obs.TraceContext, len(rows))
	for i := range tcs {
		tcs[i] = at.Context()
	}
	s.shadow.submit(rows, scores, tcs)
	encTotal, distTotal, _ := acc.Totals()
	at.Add(obs.StageEncode, encTotal)
	at.Add(obs.StageScore, distTotal)
	at.SetBatch(len(rows))
	at.Mark()
	preds := make([]int, len(scores))
	ids := make([]string, len(scores))
	for i, sc := range scores {
		if sc >= 0.5 {
			preds[i] = 1
		}
		ids[i] = batchRequestID(at.ID(), i)
		st.drift.scores.Observe(sc)
		st.drift.quality.Record(ids[i], preds[i])
	}
	s.metrics.recordsScored.Add(uint64(len(scores)))
	writeJSON(w, http.StatusOK, batchScoreResponse{
		RequestIDs: ids, Scores: scores, Predictions: preds,
		ModelVersion: st.version(), Warnings: allWarnings,
	})
	at.Step(obs.StageRespond)
	if s.audit != nil {
		// One audit event per record — each is an independent clinical
		// decision with its own feedback handle. Encode/score time is the
		// batch total amortized per record, matching the stage accum.
		n := int64(len(rows))
		stages := audit.Stages{
			EncodeUs: (encTotal / time.Duration(n)).Microseconds(),
			ScoreUs:  (distTotal / time.Duration(n)).Microseconds(),
		}
		for i, row := range rows {
			sc := scoreResponse{RequestID: ids[i], Score: scores[i], Prediction: preds[i]}
			s.auditScored(at, st, row, sc, stages, len(rows))
		}
	}
	s.metrics.ObserveLatencyTrace(time.Since(start), traceIDOf(at))
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

// handleHealthz reports liveness, the active model's identity, and the
// batcher state. While draining it answers 503 so load balancers pull
// the instance before the listener disappears.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.activeState()
	info := st.model.Info()
	status, state, code := "ok", "accepting", http.StatusOK
	if s.batcher.Draining() {
		status, state, code = "draining", "draining", http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{
		"status":        status,
		"batcher":       state,
		"model":         info.Name,
		"model_version": info.Version,
		"dim":           info.Dim,
		"features":      st.val.FeatureNames(),
	})
}

// handleMetricsJSON serves the legacy expvar-style counter snapshot.
func (s *Server) handleMetricsJSON(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.metrics.Snapshot())
}

// handleTraces serves the tracer's rings: the most recent and the
// slowest requests, each with a per-stage breakdown in microseconds and
// its batch attribution (W3C trace ID, microbatch size, model version,
// shed reason).
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
