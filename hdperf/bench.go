package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"hdfe/internal/core"
	"hdfe/internal/obs/audit"
)

// config is one benchmark run's settings.
type config struct {
	w       workload
	seed    uint64
	window  time.Duration
	trace   bool
	bin     string // hdserve binary
	workdir string
}

// setupRepeats is how many times a run fits, saves and starts a server;
// setup_s is the median, and the last server started is the one measured.
const setupRepeats = 7

// result is the JSON object printed last on stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// machine records where and how a run was measured, so an outlier run
// can be attributed.
type machine struct {
	CPUModel        string    `json:"cpu_model"`
	NProc           int       `json:"nproc"`
	GOMAXPROCS      int       `json:"gomaxprocs"`
	GoVersion       string    `json:"go_version"`
	ServerGoVersion string    `json:"server_go_version"`
	Workload        string    `json:"workload"`
	Seed            uint64    `json:"seed"`
	WindowS         float64   `json:"window_s"`
	HostStealMs     float64   `json:"host_steal_ms"`
	LateShare       float64   `json:"client_late_share"`
	LateMaxMs       float64   `json:"client_late_max_ms"`
	SetupS          []float64 `json:"setup_s_each"`
	TraceFile       string    `json:"trace_file,omitempty"`
}

// execute runs one workload end to end and computes its metrics.
func execute(ctx context.Context, cfg config) (result, machine, error) {
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return result{}, machine{}, err
	}
	runDir, err := os.MkdirTemp(cfg.workdir, "run-"+cfg.w.name+"-")
	if err != nil {
		return result{}, machine{}, err
	}
	defer os.RemoveAll(runDir)
	if runDir, err = filepath.Abs(runDir); err != nil {
		return result{}, machine{}, err
	}

	in := makeInputs(cfg.w.data, cfg.seed)
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}

	// Set-up, repeated: fit on the training cohort, save the artifact,
	// exec hdserve on it and wait for /healthz.
	artifact := filepath.Join(runDir, "model.bin")
	setups := make([]float64, 0, setupRepeats)
	var srv *server
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	for i := 0; i < setupRepeats; i++ {
		if srv != nil {
			srv.stop()
		}
		t0 := time.Now()
		sp := tr.start("core.fit", 0)
		dep, err := core.BuildDeployment(in.specs, in.train.X, in.train.Y, core.Options{Seed: cfg.seed})
		tr.end(sp, len(in.train.X))
		if err != nil {
			return result{}, machine{}, fmt.Errorf("fitting: %w", err)
		}
		sp = tr.start("core.save", 0)
		err = dep.Save(artifact)
		tr.end(sp, 1)
		if err != nil {
			return result{}, machine{}, err
		}
		sp = tr.start("serve.ready", 0)
		srv, err = startServer(ctx, cfg.bin, artifact, cfg.w.serverFlags(runDir, i), filepath.Join(runDir, fmt.Sprintf("hdserve-%d.log", i)))
		tr.end(sp, 1)
		if err != nil {
			return result{}, machine{}, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	// The reference every served score must equal.
	dep, err := core.LoadDeployment(artifact)
	if err != nil {
		return result{}, machine{}, err
	}
	d := &loadRun{cfg: cfg, srv: srv, in: in, want: dep.ScoreBatch(in.rows), tr: tr, tl: &tally{}}
	var t traffic
	if cfg.w.paced {
		t, err = d.paced(ctx)
	} else {
		t, err = d.cohort(ctx)
	}
	if err != nil {
		return result{}, machine{}, err
	}
	hwm, err := srv.peakRSS()
	if err != nil {
		return result{}, machine{}, err
	}
	srv.stop() // drains, so the audit log is closed and complete

	var auditBytes, auditEvents float64
	if cfg.w.audit {
		dir := auditDir(runDir, setupRepeats-1)
		res, err := audit.VerifyDir(dir)
		if err == nil && res.Events != t.scored+t.labels {
			err = fmt.Errorf("audit: %d events, want %d scored records + %d labels", res.Events, t.scored, t.labels)
		}
		d.tl.op(err)
		auditEvents = float64(res.Events)
		if auditBytes, err = dirBytes(dir); err != nil {
			return result{}, machine{}, err
		}
	}

	first, last := t.edges[0], t.edges[len(t.edges)-1]
	delta := func(name string, pairs ...string) float64 {
		return last.prom.sum(name, pairs...) - first.prom.sum(name, pairs...)
	}
	records := delta("hdserve_records_scored_total")
	if records <= 0 {
		return result{}, machine{}, fmt.Errorf("no records scored inside the window")
	}
	var all []float64 // every scoring latency inside the window
	for _, ms := range t.reqMs {
		all = append(all, ms...)
	}
	lateShare, lateMax := 0.0, 0.0
	for _, ms := range t.lateMs {
		if ms > float64(lateLimit)/1e6 {
			lateShare++
		}
		lateMax = max(lateMax, ms)
	}
	lateShare = ratio(lateShare, float64(len(t.lateMs)))
	cpuModel, _ := os.ReadFile("/proc/cpuinfo") // the model is informational
	mach := machine{
		CPUModel:        parseCPUModel(cpuModel),
		NProc:           runtime.NumCPU(),
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		GoVersion:       runtime.Version(),
		ServerGoVersion: last.prom.label("hdserve_build_info", "go_version"),
		Workload:        cfg.w.name,
		Seed:            cfg.seed,
		WindowS:         last.at.Sub(first.at).Seconds(),
		HostStealMs:     float64(last.steal-first.steal) / 1e6,
		LateShare:       lateShare,
		LateMaxMs:       lateMax,
		SetupS:          setups,
	}

	res := result{Attempted: d.tl.attempted, Failed: d.tl.failed, Correct: d.tl.failed == 0}
	if !cfg.trace {
		// Rates pool the middle half of the window's slices; latencies
		// are medians over slices of each slice's percentile.
		var cpuUs, recs, secs []float64
		for i := 1; i < len(t.edges); i++ {
			a, b := t.edges[i-1], t.edges[i]
			cpuUs = append(cpuUs, float64(b.cpu-a.cpu)/1e3)
			recs = append(recs, b.prom.sum("hdserve_records_scored_total")-a.prom.sum("hdserve_records_scored_total"))
			secs = append(secs, b.at.Sub(a.at).Seconds())
		}
		res.Metrics = map[string]metric{
			"setup_s":                  {percentile(setups, 0.5), "s"},
			"server_cpu_us_per_record": {midRate(cpuUs, recs), "us"},
			"records_per_s":            {midRate(recs, secs), "1/s"},
			"req_p50_ms":               {medianOf(t.reqMs, 0.5), "ms"},
			"req_p90_ms":               {medianOf(t.reqMs, 0.9), "ms"},
			"rss_peak_mb":              {float64(hwm) / 1024, "MiB"},
		}
		return res, mach, nil
	}

	layers, err := timeLayers(tr, in, dep, cfg.seed)
	if err != nil {
		return result{}, machine{}, err
	}
	requests := delta("hdserve_requests_total")
	stageUs := func(stage string) metric {
		return metric{ratio(delta("hdserve_stage_duration_seconds_sum", `stage="`+stage+`"`)*1e6, requests), "us"}
	}
	res.Metrics = map[string]metric{
		"core.fit_s":                       {tr.medianSeconds("core.fit"), "s"},
		"core.save_s":                      {tr.medianSeconds("core.save"), "s"},
		"serve.ready_s":                    {tr.medianSeconds("serve.ready"), "s"},
		"serve.validate_us":                stageUs("validate"),
		"serve.batch_wait_us":              stageUs("batch_wait"),
		"serve.encode_us":                  stageUs("encode"),
		"serve.score_us":                   stageUs("score"),
		"serve.respond_us":                 stageUs("respond"),
		"serve.batch_size_mean":            {ratio(delta("hdserve_batch_size_sum"), delta("hdserve_batch_size_count")), "count"},
		"serve.batches":                    {delta("hdserve_batches_total"), "count"},
		"audit.events_per_record":          {ratio(delta("hdfe_audit_events_total"), records), "count"},
		"audit.dropped":                    {delta("hdfe_audit_dropped_total"), "count"},
		"audit.bytes_per_event":            {ratio(auditBytes, auditEvents), "B"},
		"drift.feedback_matched_ratio":     {ratio(float64(t.matched), float64(t.labels)), "ratio"},
		"prof.captures":                    {delta("hdfe_prof_captures_total"), "count"},
		"runtime.gc_cycles_per_1k_records": {1000 * delta("hdfe_runtime_gc_cycles_total") / records, "count"},
		"runtime.heap_inuse_mb":            {last.prom.sum("hdfe_runtime_heap_inuse_bytes") / (1 << 20), "MiB"},
		"client.late_share":                {lateShare, "ratio"},
		"client.feedback_p50_ms":           {medianOf(t.feedbackMs, 0.5), "ms"},
		"client.req_p95_ms":                {percentile(all, 0.95), "ms"},
		"client.req_p99_ms":                {percentile(all, 0.99), "ms"},
		"host.steal_ms":                    {mach.HostStealMs, "ms"},
		"trace.overhead_p50_us":            {(percentile(t.tracedMs, 0.5) - percentile(t.untracedMs, 0.5)) * 1e3, "us"},
	}
	for name, m := range layers {
		res.Metrics[name] = m
	}
	res.Metrics["trace.spans"] = metric{float64(tr.len()), "count"}
	mach.TraceFile = filepath.Join(cfg.workdir, "trace", fmt.Sprintf("%s-seed%d.json", cfg.w.name, cfg.seed))
	if err := tr.write(mach.TraceFile, mach); err != nil {
		return result{}, machine{}, err
	}
	return res, mach, nil
}

// dirBytes is the total size of the files in dir.
func dirBytes(dir string) (float64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	total := 0.0
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		total += float64(info.Size())
	}
	return total, nil
}
