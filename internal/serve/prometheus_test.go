package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"hdfe/internal/obs"
	"hdfe/internal/synth"
)

// promFamilies is the golden inventory of /metrics: every family name
// with its type, sorted. Renaming or dropping a metric is a breaking
// change for every dashboard scraping this service — this test is the
// tripwire.
var promFamilies = []string{
	"go_gc_cycles_total counter",
	"go_gc_pause_seconds_total counter",
	"go_goroutines gauge",
	"go_memstats_heap_alloc_bytes gauge",
	"go_memstats_heap_objects gauge",
	"go_memstats_heap_sys_bytes gauge",
	"go_memstats_next_gc_bytes gauge",
	"hdfe_audit_chain_length gauge",
	"hdfe_audit_dropped_total counter",
	"hdfe_audit_events_total counter",
	"hdfe_audit_fsync_seconds_total counter",
	"hdfe_audit_fsyncs_total counter",
	"hdfe_audit_rotations_total counter",
	"hdfe_drift_clamp_ratio gauge",
	"hdfe_drift_missing_total counter",
	"hdfe_drift_out_of_range_total counter",
	"hdfe_drift_prediction_positive_ratio gauge",
	"hdfe_drift_psi gauge",
	"hdfe_drift_rows_observed_total counter",
	"hdfe_drift_score_margin_mean gauge",
	"hdfe_feedback_unmatched_total counter",
	"hdfe_prof_capture_failures_total counter",
	"hdfe_prof_captures_total counter",
	"hdfe_prof_ring_captures gauge",
	"hdfe_prof_watchdog_firing gauge",
	"hdfe_prof_watchdog_triggers_total counter",
	"hdfe_quality_accuracy gauge",
	"hdfe_quality_baseline_accuracy gauge",
	"hdfe_quality_canary_healthy gauge",
	"hdfe_quality_f1 gauge",
	"hdfe_quality_labels_total counter",
	"hdfe_runtime_gc_cycles_total counter",
	"hdfe_runtime_gc_pauses_seconds histogram",
	"hdfe_runtime_goroutines gauge",
	"hdfe_runtime_heap_goal_bytes gauge",
	"hdfe_runtime_heap_inuse_bytes gauge",
	"hdfe_runtime_mem_total_bytes gauge",
	"hdfe_runtime_mutex_wait_seconds_total counter",
	"hdfe_runtime_sched_latencies_seconds histogram",
	"hdfe_shed_total counter",
	"hdfe_slo_burn_rate gauge",
	"hdfe_slo_compliance gauge",
	"hdfe_slo_latency_objective_seconds gauge",
	"hdfe_slo_state gauge",
	"hdfe_slo_target gauge",
	"hdfe_slo_window_requests gauge",
	"hdfe_trace_dropped_total counter",
	"hdfe_trace_export_batches_total counter",
	"hdfe_trace_export_failures_total counter",
	"hdfe_trace_exported_total counter",
	"hdfe_trace_sampled_total counter",
	"hdserve_batch_size histogram",
	"hdserve_batcher_accepting gauge",
	"hdserve_batcher_queue_depth gauge",
	"hdserve_batches_total counter",
	"hdserve_build_info gauge",
	"hdserve_errors_total counter",
	"hdserve_inflight_records gauge",
	"hdserve_microbatched_records_total counter",
	"hdserve_model_swaps_total counter",
	"hdserve_records_scored_total counter",
	"hdserve_request_duration_seconds histogram",
	"hdserve_requests_total counter",
	"hdserve_stage_duration_seconds histogram",
	"hdserve_timeouts_total counter",
	"hdserve_uptime_seconds gauge",
	"hdserve_validation_errors_total counter",
}

// promSample validates one exposition sample line, optionally carrying
// an OpenMetrics exemplar suffix (` # {trace_id="..."} value ts`) on
// histogram buckets.
var promSample = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (\+Inf|NaN|[-+0-9.eE]+)( # \{trace_id="[0-9a-f]{32}"\} [-+0-9.eE]+ [0-9]+\.[0-9]{3})?$`)

func scrape(t *testing.T, ts *httptest.Server) (string, *http.Response) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return string(body), resp
}

func TestPrometheusExposition(t *testing.T) {
	dep := testDeployment(t, 256)
	s := New(dep, Config{ModelName: "prom-test", MaxWait: time.Millisecond})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Drive one request through each scoring route so counters move.
	d := synth.PimaM(7)
	postJSON(t, ts.Client(), ts.URL+"/v1/score", scoreRequest{Features: floats(d.X[0]...)})
	postJSON(t, ts.Client(), ts.URL+"/v1/score/batch",
		batchScoreRequest{Records: [][]*float64{floats(d.X[1]...)}})

	body, resp := scrape(t, ts)
	if ct := resp.Header.Get("Content-Type"); ct != obs.PromContentType {
		t.Errorf("Content-Type %q, want %q", ct, obs.PromContentType)
	}

	// Golden family inventory from the # TYPE lines.
	var families []string
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			families = append(families, rest)
		}
	}
	sort.Strings(families)
	if got, want := strings.Join(families, "\n"), strings.Join(promFamilies, "\n"); got != want {
		t.Errorf("metric family inventory changed:\ngot:\n%s\nwant:\n%s", got, want)
	}

	// Every non-comment line must be a well-formed sample.
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !promSample.MatchString(line) {
			t.Errorf("malformed sample line %q", line)
		}
	}

	// Per-stage histograms: every pipeline stage is always exposed, and
	// the stages the request actually crossed have observations.
	for i := 0; i < obs.NumStages; i++ {
		stage := obs.Stage(i).String()
		if !strings.Contains(body, `hdserve_stage_duration_seconds_count{stage="`+stage+`"}`) {
			t.Errorf("stage %q missing from exposition", stage)
		}
	}
	for _, want := range []string{
		`hdserve_stage_duration_seconds_bucket{stage="encode",le="+Inf"}`,
		`hdserve_requests_total{route="score"} 1`,
		`hdserve_requests_total{route="score_batch"} 1`,
		`hdserve_batch_size_bucket{le="1"}`,
		`hdserve_request_duration_seconds_bucket{le="+Inf"} 2`,
		`hdserve_build_info{go_version="`,
		`model="prom-test"`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// The traced stages must carry real time: the single-record request
	// crossed validate, batch_wait, encode, score, and respond.
	for _, stage := range []string{"validate", "batch_wait", "encode", "score", "respond"} {
		marker := `hdserve_stage_duration_seconds_count{stage="` + stage + `"} 0`
		if strings.Contains(body, marker) {
			t.Errorf("stage %q has zero observations after a scored request", stage)
		}
	}
}

func TestTracesEndpoint(t *testing.T) {
	dep := testDeployment(t, 256)
	s := New(dep, Config{MaxWait: time.Millisecond, TraceBuffer: 8})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	d := synth.PimaM(7)
	for i := 0; i < 12; i++ {
		postJSON(t, ts.Client(), ts.URL+"/v1/score", scoreRequest{Features: floats(d.X[i]...)})
	}

	resp, err := ts.Client().Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
		t.Errorf("Cache-Control %q, want no-store", cc)
	}
	var out struct {
		Recent  []obs.TraceView `json:"recent"`
		Slowest []obs.TraceView `json:"slowest"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Recent) != 8 || len(out.Slowest) != 8 {
		t.Fatalf("rings recent=%d slowest=%d, want 8/8 (TraceBuffer)", len(out.Recent), len(out.Slowest))
	}
	first := out.Recent[0]
	if first.Route != "score" || first.Status != http.StatusOK || first.ID == 0 {
		t.Errorf("recent[0] = %+v", first)
	}
	if first.TotalMicros <= 0 {
		t.Errorf("trace total %v, want > 0", first.TotalMicros)
	}
	for _, stage := range []string{"validate", "batch_wait", "encode", "score", "respond"} {
		if first.Stages[stage] < 0 {
			t.Errorf("stage %s = %v, want >= 0", stage, first.Stages[stage])
		}
		if _, ok := first.Stages[stage]; !ok {
			t.Errorf("recent trace missing stage %s: %v", stage, first.Stages)
		}
	}
	if first.Batch < 1 {
		t.Errorf("trace batch size %d, want >= 1", first.Batch)
	}
	for i := 1; i < len(out.Slowest); i++ {
		if out.Slowest[i-1].TotalMicros < out.Slowest[i].TotalMicros {
			t.Errorf("slowest not ordered at %d: %v < %v", i,
				out.Slowest[i-1].TotalMicros, out.Slowest[i].TotalMicros)
		}
	}
}

func TestMetricsJSONHeadersAndShape(t *testing.T) {
	dep := testDeployment(t, 256)
	s := New(dep, Config{MaxWait: time.Millisecond})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type %q, want application/json", ct)
	}
	if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
		t.Errorf("Cache-Control %q, want no-store", cc)
	}
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.UptimeSeconds < 0 {
		t.Errorf("uptime %v", snap.UptimeSeconds)
	}
}

func TestHealthzDrainState(t *testing.T) {
	dep := testDeployment(t, 256)
	s := New(dep, Config{ModelName: "drain-test"})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func() (int, map[string]any) {
		resp, err := ts.Client().Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("Content-Type %q, want application/json", ct)
		}
		if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
			t.Errorf("Cache-Control %q, want no-store", cc)
		}
		var body map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}

	code, body := get()
	if code != http.StatusOK || body["status"] != "ok" || body["batcher"] != "accepting" {
		t.Fatalf("live healthz: %d %v", code, body)
	}

	s.Close() // batcher drains: load balancers must now see draining
	code, body = get()
	if code != http.StatusServiceUnavailable || body["status"] != "draining" || body["batcher"] != "draining" {
		t.Fatalf("draining healthz: %d %v", code, body)
	}
}

// TestPprofOptIn pins that pprof is absent by default and mounted with
// EnablePprof.
func TestPprofOptIn(t *testing.T) {
	dep := testDeployment(t, 256)
	s := New(dep, Config{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	resp, err := ts.Client().Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof reachable without EnablePprof: %d", resp.StatusCode)
	}
	ts.Close()

	s2 := New(dep, Config{EnablePprof: true})
	defer s2.Close()
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	resp, err = ts2.Client().Get(ts2.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "goroutine") {
		t.Errorf("pprof index with EnablePprof: %d %q", resp.StatusCode, body[:min(len(body), 80)])
	}
}
