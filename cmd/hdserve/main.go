// Command hdserve serves a persisted hdfe deployment as an HTTP scoring
// service (see internal/serve).
//
// Usage:
//
//	hdserve -model dep.bin [-shadow cand.bin] [-addr :8080] [-name pima]
//	        [-timeout 5s] [-max-inflight 1024] [-retry-after 1s]
//	        [-chaos-spec ""] [-chaos-seed 1]
//	        [-reject-missing] [-reject-out-of-range]
//	        [-otlp-endpoint ""] [-trace-sample 0.01]
//	        [-slo-target 0.999] [-slo-latency-ms 250]
//	        [-prof-interval 30s] [-prof-cpu-ms 250]
//	        [-audit-dir ""] [-audit-fsync none]
//	        [-log-format text|json] [-log-level info] [-pprof]
//	hdserve -demo [-addr :8080] [-dim 10000] [-seed 42]
//	hdserve -write-demo dep.bin [-dim 10000] [-seed 42]
//
// -demo fits a deployment on the synthetic Pima M dataset in-process and
// serves it immediately — the quickest way to try the API. -write-demo
// writes that same deployment to a file and exits, producing a model
// artifact for -model. On SIGINT/SIGTERM the server closes its listener,
// so new connections are refused, and lets in-flight requests finish
// before exiting.
//
// Model lifecycle: the boot model becomes model version 1 and serves
// until replaced. SIGHUP re-reads the -model artifact and hot-swaps it
// with zero downtime (in-flight requests finish on the old model). POST
// /admin/models/load loads a new artifact as the active model or — with
// "shadow": true — as a shadow that re-scores the same validated
// batches off the hot path and reports disagreement-rate and
// score-delta metrics for canary comparison before promotion. -shadow
// installs such a shadow at boot; GET /v1/models reports the active and
// shadow models, the swap count and every model adopted since boot.
//
// Observability: every scoring request is logged structurally (log/slog,
// text or JSON) with its trace ID, route, status, latency, and batch
// size: a 4xx at warn, a 5xx at error, and a 2xx only at -log-level
// debug, since the audit event and /debug/traces carry the same fields.
// /metrics serves Prometheus text format, /debug/traces the recent and
// slowest per-stage request traces, and -pprof mounts net/http/pprof
// under /debug/pprof/.
//
// Distributed tracing: every scoring route parses an inbound W3C
// traceparent/tracestate, adopts a valid upstream trace ID (falling
// back to a generated one), and echoes traceparent on every response —
// including 429/504 sheds — so a gateway can correlate failures.
// -otlp-endpoint enables OTLP/JSON span export through a bounded lossy
// queue (telemetry never blocks scoring; overflow is counted in
// hdfe_trace_dropped_total). Export is tail-sampled: slow, error, shed,
// and shadow-disagreement traces are always kept, plus a -trace-sample
// fraction of ordinary traffic; "slow" means at or past the live p99 of
// the request-latency histogram, which reads within 9.05% of the true
// value. Latency histogram buckets carry OpenMetrics exemplars
// referencing real trace IDs.
//
// Continuous profiling: the server profiles itself on a jittered
// -prof-interval cadence — CPU (a -prof-cpu-ms window), heap, goroutine,
// and rate-gated mutex/block profiles land in a bounded in-memory ring of
// 16 gzipped pprof blobs, each tagged with its trigger and the runtime
// state at capture time. /debug/prof serves the ring index and
// the runtime watchdog states; /debug/prof/{id} downloads a blob for
// `go tool pprof`.
// Watchdogs (goroutine high-water/leak, heap-growth slope, GC-pause p99)
// fire edge-triggered warnings and capture out-of-cycle evidence
// profiles. hdfe_prof_* and hdfe_runtime_* metric families land in
// /metrics.
//
// Decision audit: -audit-dir enables the hash-chained audit trail
// (internal/obs/audit) — one tamper-evident wide event per
// score/shed/error/feedback/model-swap decision, written through a
// bounded lossy queue that never blocks scoring, with size-based
// segment rotation at 8 MiB, a configurable fsync policy
// (-audit-fsync none|always|<duration>), and torn-tail recovery on
// restart. `?explain=k` on /v1/score adds the top-k per-feature
// explain contributions to the response and the audit event.
// /debug/audit serves writer state plus a recent-events ring;
// hdfe_audit_* families land in /metrics. Verify and replay the trail
// offline with the hdaudit tool.
//
// SLOs: -slo-target and -slo-latency-ms configure availability and
// latency objectives with multi-window burn rates (5m/1h fast, 6h/3d
// slow), served at /debug/slo, exported as hdfe_slo_* families, and
// logged on every edge-triggered burn-state change.
//
// Overload protection: -max-inflight bounds admitted records; excess
// load is shed with 429 + Retry-After before any encode work is spent
// (hdfe_shed_total counts rejections by reason). Clients can tighten the
// per-request budget with an X-Request-Deadline-Ms header (malformed: 400);
// on either scoring route, a request past its deadline when encode would
// start is shed with 504, whole batch included, never scored.
// -chaos-spec enables the deterministic fault-injection seam
// (internal/chaos) for soak and failure-drill testing — scoring stalls,
// shadow-queue pressure, and profile-capture and audit-write faults.
// A failed artifact load or span export needs no seam: point the server
// at a corrupt artifact or at a collector that answers 5xx or stalls.
//
// Model observability: the server monitors input drift (per-feature PSI
// against the training reference stored in the deployment), prediction
// drift (rolling score window), and delayed-label quality (POST
// ground-truth labels to /v1/feedback using the request_id from scoring
// responses). /debug/drift reports everything as JSON; hdfe_drift_* and
// hdfe_quality_* families land in /metrics; threshold crossings (PSI
// 0.25, clamp ratio 0.01, accuracy 0.05 below the LOOCV baseline) warn
// in the structured log.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hdfe/internal/chaos"
	"hdfe/internal/core"
	"hdfe/internal/hv"
	"hdfe/internal/obs"
	"hdfe/internal/obs/audit"
	"hdfe/internal/obs/prof"
	"hdfe/internal/serve"
	"hdfe/internal/synth"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "hdserve: %v\n", err)
		os.Exit(1)
	}
}

// run is the testable main: it parses args, builds or loads the
// deployment, and serves until ctx is cancelled. The "serving" log line
// carries the bound listening address, so callers (and tests) can bind
// to port 0 and discover the real port from stdout, and then the tier of
// hv block kernels this CPU runs (avx512, avx2 or go).
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("hdserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		model         = fs.String("model", "", "deployment file written by core.Deployment.Save")
		shadowPath    = fs.String("shadow", "", "deployment file to install as the shadow (canary) model")
		name          = fs.String("name", "", "model name reported by /healthz (default: model file or \"demo\")")
		addr          = fs.String("addr", ":8080", "listen address")
		maxInFlight   = fs.Int("max-inflight", 1024, "admitted-record budget; excess load is shed with 429 (negative disables)")
		retryAfter    = fs.Duration("retry-after", time.Second, "Retry-After hint on 429/503 shed responses")
		chaosSpec     = fs.String("chaos-spec", "", "fault-injection spec, e.g. \"score:p=0.1,delay=5ms;audit:err=disk gone\" (empty = chaos disabled)")
		chaosSeed     = fs.Uint64("chaos-seed", 1, "seed for the deterministic chaos injector")
		timeout       = fs.Duration("timeout", 5*time.Second, "per-request timeout")
		rejectMissing = fs.Bool("reject-missing", false, "reject null feature values instead of encoding them as missing")
		rejectRange   = fs.Bool("reject-out-of-range", false, "reject values outside the fitted range instead of clamp-and-warn")
		otlpEndpoint  = fs.String("otlp-endpoint", "", "OTLP/HTTP trace collector URL, e.g. http://localhost:4318/v1/traces (empty disables span export)")
		traceSample   = fs.Float64("trace-sample", 0.01, "head-sampling fraction of ordinary traces to export; slow/error/shed traces are always kept (negative: tail-only)")
		sloTarget     = fs.Float64("slo-target", 0.999, "SLO compliance target for the availability and latency objectives")
		sloLatencyMs  = fs.Int("slo-latency-ms", 250, "per-request latency objective in milliseconds for the SLO engine")
		logFormat     = fs.String("log-format", "text", "structured log format: text or json")
		logLevel      = fs.String("log-level", "info", "minimum log level: debug, info, warn, error")
		pprofFlag     = fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (context-aware profile/trace handlers)")
		profInterval  = fs.Duration("prof-interval", prof.DefaultInterval, "continuous-profiling capture cadence (0 disables scheduled captures)")
		profCPUMs     = fs.Int("prof-cpu-ms", int(prof.DefaultCPUDuration/time.Millisecond), "CPU profile sampling window per cycle, in milliseconds")
		auditDir      = fs.String("audit-dir", "", "directory for the hash-chained decision audit log (empty disables auditing)")
		auditFsync    = fs.String("audit-fsync", "none", "audit fsync policy: none, always, or an interval duration like 250ms")
		demo          = fs.Bool("demo", false, "fit a synthetic Pima M deployment in-process and serve it")
		writeDemo     = fs.String("write-demo", "", "write the demo deployment to this file and exit")
		dim           = fs.Int("dim", 0, "demo hypervector dimensionality (0 = 10000)")
		seed          = fs.Uint64("seed", 42, "demo synthesis + encoder seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	logger, err := obs.NewLogger(stdout, *logFormat, *logLevel)
	if err != nil {
		return err
	}
	injector, err := chaos.Parse(*chaosSpec, *chaosSeed)
	if err != nil {
		return err
	}
	if injector != nil {
		logger.Warn("chaos injection enabled", "spec", injector.String(), "seed", *chaosSeed)
	}

	if *writeDemo != "" {
		dep, err := demoDeployment(*dim, *seed)
		if err != nil {
			return err
		}
		if err := dep.Save(*writeDemo); err != nil {
			return err
		}
		logger.Info("wrote demo deployment", "dim", dep.Extractor.Dim(), "path", *writeDemo)
		return nil
	}

	var (
		dep *core.Deployment
		sha string
	)
	modelName := *name
	switch {
	case *demo && *model != "":
		return errors.New("use either -demo or -model, not both")
	case *demo:
		var err error
		if dep, err = demoDeployment(*dim, *seed); err != nil {
			return err
		}
		if modelName == "" {
			modelName = "demo-pima-m"
		}
	case *model != "":
		var err error
		if dep, sha, err = core.ReadFile(*model); err != nil {
			return err
		}
		if modelName == "" {
			modelName = *model
		}
	default:
		return errors.New("-model is required (or use -demo)")
	}

	var auditLog *audit.Log
	if *auditDir != "" {
		policy, every, err := audit.ParseFsync(*auditFsync)
		if err != nil {
			return err
		}
		auditLog, err = audit.Open(audit.Config{
			Dir:        *auditDir,
			Fsync:      policy,
			FsyncEvery: every,
			Chaos:      injector,
			Logger:     logger,
		})
		if err != nil {
			return err
		}
		resumed, _ := auditLog.Chain()
		logger.Info("audit trail enabled",
			"dir", *auditDir, "fsync", *auditFsync,
			"resumed_seq", resumed)
	}

	// On the flag surface a zero interval means "off"; in prof.Config zero
	// means "default" and negative means off.
	profCfg := prof.Config{Interval: *profInterval, CPUDuration: time.Duration(*profCPUMs) * time.Millisecond}
	if *profInterval <= 0 {
		profCfg.Interval = -1
	}
	srv := serve.New(dep, serve.Config{
		ModelName:        modelName,
		ModelPath:        *model,
		ModelSHA256:      sha,
		MaxInFlight:      *maxInFlight,
		RetryAfter:       *retryAfter,
		Chaos:            injector,
		RequestTimeout:   *timeout,
		RejectMissing:    *rejectMissing,
		RejectOutOfRange: *rejectRange,
		OTLPEndpoint:     *otlpEndpoint,
		TraceSample:      *traceSample,
		SLOTarget:        *sloTarget,
		SLOLatency:       time.Duration(*sloLatencyMs) * time.Millisecond,
		Logger:           logger,
		EnablePprof:      *pprofFlag,
		Prof:             profCfg,
		Audit:            auditLog,
	})
	if *shadowPath != "" {
		info, err := srv.LoadShadow(*shadowPath, "")
		if err != nil {
			return err
		}
		logger.Info("shadow model loaded",
			"model", info.Name, "model_version", info.Version, "sha256", info.SHA256)
	}

	// SIGHUP hot-swaps the active model by re-reading its backing
	// artifact. A failed reload (missing file, corrupt artifact, schema
	// mismatch, or an in-process -demo model) is logged and the current
	// model keeps serving.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	go func() {
		for {
			select {
			case <-ctx.Done():
				return
			case <-hup:
				info, err := srv.ReloadModel()
				if err != nil {
					logger.Error("model reload failed", "err", err)
					continue
				}
				logger.Info("model reloaded",
					"model", info.Name, "model_version", info.Version, "sha256", info.SHA256)
			}
		}
	}()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	logger.Info("serving",
		"model", modelName,
		"dim", dep.Extractor.Dim(),
		"features", dep.Extractor.Codebook().NumFeatures(),
		"addr", ln.Addr().String(),
		"kernels", hv.Kernels(),
		"pprof", *pprofFlag)
	err = srv.Serve(ctx, ln)
	logger.Info("drained and stopped", "summary", srv.Metrics().String())
	return err
}

// demoDeployment fits the serving demo model: the synthetic Pima M
// dataset through the paper's encoder configuration.
func demoDeployment(dim int, seed uint64) (*core.Deployment, error) {
	d := synth.PimaM(seed)
	return core.BuildDeployment(core.SpecsFor(d.Features), d.X, d.Y, core.Options{Dim: dim, Seed: seed})
}
