package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hdfe/internal/chaos"
	"hdfe/internal/obs"
	"hdfe/internal/synth"
)

const (
	upstreamTraceparent = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	upstreamTraceID     = "4bf92f3577b34da6a3ce929d0e0e4736"
	upstreamSpanID      = "00f067aa0ba902b7"
)

var traceparentRe = regexp.MustCompile(`^00-[0-9a-f]{32}-[0-9a-f]{16}-[0-9a-f]{2}$`)

// postScore sends one scoring request with optional trace headers and
// returns the response with its body read.
func postScore(t *testing.T, ts *httptest.Server, features []*float64, headers map[string]string) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(scoreRequest{Features: features})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/score", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestTraceparentAdoptionEndToEnd pins the W3C propagation contract on
// the wire: a valid upstream traceparent keeps its trace ID through the
// server (fresh span ID), tracestate passes through untouched, and the
// adopted identity shows up in /debug/traces.
func TestTraceparentAdoptionEndToEnd(t *testing.T) {
	dep := testDeployment(t, 128)
	s := New(dep, Config{MaxWait: time.Millisecond, TraceSeed: 42})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	d := synth.PimaM(7)
	resp, body := postScore(t, ts, floats(d.X[0]...), map[string]string{
		"traceparent": upstreamTraceparent,
		"tracestate":  "vendor=1",
	})
	if resp.StatusCode != 200 {
		t.Fatalf("score: %d %s", resp.StatusCode, body)
	}
	tp := resp.Header.Get("traceparent")
	if !traceparentRe.MatchString(tp) {
		t.Fatalf("response traceparent %q malformed", tp)
	}
	if tp[3:35] != upstreamTraceID {
		t.Errorf("trace ID %s not adopted from upstream", tp[3:35])
	}
	if tp[36:52] == upstreamSpanID {
		t.Error("server reused the upstream span ID instead of minting its own")
	}
	if got := resp.Header.Get("tracestate"); got != "vendor=1" {
		t.Errorf("tracestate %q, want pass-through", got)
	}
	if resp.Header.Get("X-Request-Id") == "" {
		t.Error("no X-Request-Id on the response")
	}

	// A client-supplied request ID is echoed verbatim.
	resp, _ = postScore(t, ts, floats(d.X[0]...), map[string]string{"X-Request-Id": "gw-7081"})
	if got := resp.Header.Get("X-Request-Id"); got != "gw-7081" {
		t.Errorf("X-Request-Id %q, want the client's gw-7081 echoed", got)
	}

	// The adopted identity is queryable after the fact.
	res, err := ts.Client().Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	debug, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if !bytes.Contains(debug, []byte(upstreamTraceID)) {
		t.Error("/debug/traces does not carry the adopted trace ID")
	}
}

// TestTraceparentMalformedNeverFails pins the resilience contract: no
// traceparent, however broken, changes the response status — the server
// falls back to a fresh identity and still echoes a valid traceparent.
func TestTraceparentMalformedNeverFails(t *testing.T) {
	dep := testDeployment(t, 128)
	s := New(dep, Config{MaxWait: time.Millisecond, TraceSeed: 42})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	d := synth.PimaM(7)
	cases := []struct {
		name   string
		header string
	}{
		{"empty", ""},
		{"garbage", "not-a-traceparent"},
		{"oversized", upstreamTraceparent + upstreamTraceparent},
		{"uppercase hex", "00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01"},
		{"version ff", "ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"},
		{"all-zero trace ID", "00-00000000000000000000000000000000-00f067aa0ba902b7-01"},
		{"all-zero span ID", "00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01"},
		{"truncated", "00-4bf92f3577b34da6"},
		{"embedded whitespace", "00-4bf92f3577b34da6 a3ce929d0e0e4736-00f067aa0ba902b7-01"},
	}
	for _, c := range cases {
		hdr := map[string]string{}
		if c.header != "" {
			hdr["traceparent"] = c.header
		}
		resp, body := postScore(t, ts, floats(d.X[0]...), hdr)
		if resp.StatusCode != 200 {
			t.Errorf("%s: status %d (%s), want 200", c.name, resp.StatusCode, body)
			continue
		}
		tp := resp.Header.Get("traceparent")
		if !traceparentRe.MatchString(tp) {
			t.Errorf("%s: response traceparent %q malformed", c.name, tp)
		}
		if tp[3:35] == upstreamTraceID {
			t.Errorf("%s: adopted a trace ID from a malformed header", c.name)
		}
	}
}

// TestErrorBodiesCarryTraceID pins satellite (a): every client-visible
// failure — validation 400, overload 429, deadline 504 — carries the
// request's trace ID in the JSON body, with the traceparent and
// X-Request-Id echoed on the response, so a failing client can quote an
// identity the operator can look up.
func TestErrorBodiesCarryTraceID(t *testing.T) {
	dep := testDeployment(t, 128)
	// One admission slot and a 150ms stall at the batch point: a stalled
	// scoring request deterministically occupies the gate (429 for the
	// next arrival) and overruns a 20ms client deadline (504).
	inj := chaos.New(1, chaos.Fault{Point: chaos.PointBatch, P: 1, Delay: 150 * time.Millisecond})
	s := New(dep, Config{
		MaxWait:        time.Millisecond,
		MaxInFlight:    1,
		RequestTimeout: 400 * time.Millisecond,
		Chaos:          inj,
		TraceSeed:      42,
	})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	d := synth.PimaM(7)

	check := func(name string, resp *http.Response, body []byte, wantStatus int) {
		t.Helper()
		if resp.StatusCode != wantStatus {
			t.Fatalf("%s: status %d (%s), want %d", name, resp.StatusCode, body, wantStatus)
		}
		var e struct {
			Error   string `json:"error"`
			TraceID string `json:"trace_id"`
		}
		if err := json.Unmarshal(body, &e); err != nil {
			t.Fatalf("%s: %v in %s", name, err, body)
		}
		if e.Error == "" {
			t.Errorf("%s: empty error message", name)
		}
		if !regexp.MustCompile(`^[0-9a-f]{32}$`).MatchString(e.TraceID) {
			t.Errorf("%s: body trace_id %q not a 32-hex trace ID", name, e.TraceID)
		}
		tp := resp.Header.Get("traceparent")
		if !traceparentRe.MatchString(tp) {
			t.Errorf("%s: traceparent %q malformed", name, tp)
		}
		if tp[3:35] != e.TraceID {
			t.Errorf("%s: body trace_id %s != header trace ID %s", name, e.TraceID, tp[3:35])
		}
		if resp.Header.Get("X-Request-Id") == "" {
			t.Errorf("%s: no X-Request-Id", name)
		}
	}

	// 400: wrong feature count, rejected in validation. With an upstream
	// traceparent, the body's trace_id is the upstream trace ID —
	// exactly what the caller can correlate on.
	resp, body := postScore(t, ts, floats(1, 2), map[string]string{"traceparent": upstreamTraceparent})
	check("400 validation", resp, body, http.StatusBadRequest)
	var e struct {
		TraceID string `json:"trace_id"`
	}
	_ = json.Unmarshal(body, &e)
	if e.TraceID != upstreamTraceID {
		t.Errorf("400 body trace_id %s, want the upstream %s", e.TraceID, upstreamTraceID)
	}

	// 504: a 20ms client budget under the 150ms stall.
	resp, body = postScore(t, ts, floats(d.X[0]...), map[string]string{DeadlineHeader: "20"})
	check("504 deadline", resp, body, http.StatusGatewayTimeout)

	// 429: occupy the single admission slot with a stalled request, then
	// probe while it holds the budget.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		postScore(t, ts, floats(d.X[0]...), nil)
	}()
	waitFor(t, 2*time.Second, func() bool { return s.adm.Inflight() >= 1 },
		"stalled request never occupied the admission gate")
	resp, body = postScore(t, ts, floats(d.X[1]...), nil)
	wg.Wait()
	check("429 overload", resp, body, http.StatusTooManyRequests)
}

// otlpSink collects raw OTLP POST bodies.
type otlpSink struct {
	mu     sync.Mutex
	bodies [][]byte
}

func (c *otlpSink) handler() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		c.mu.Lock()
		c.bodies = append(c.bodies, b)
		c.mu.Unlock()
	}
}

func (c *otlpSink) contains(sub string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, b := range c.bodies {
		if bytes.Contains(b, []byte(sub)) {
			return true
		}
	}
	return false
}

// TestOTLPExportEndToEnd pins the full span path: with head sampling at
// 1, a scored request's spans — root, stage children, adopted upstream
// trace ID — land at the collector, and the export counters surface on
// /metrics.
func TestOTLPExportEndToEnd(t *testing.T) {
	var sink otlpSink
	col := httptest.NewServer(sink.handler())
	defer col.Close()

	dep := testDeployment(t, 128)
	s := New(dep, Config{
		MaxWait:      time.Millisecond,
		OTLPEndpoint: col.URL,
		TraceSample:  1,
		TraceSeed:    42,
	})
	ts := httptest.NewServer(s.Handler())
	d := synth.PimaM(7)
	for i := 0; i < 4; i++ {
		resp, body := postScore(t, ts, floats(d.X[i]...), map[string]string{"traceparent": upstreamTraceparent})
		if resp.StatusCode != 200 {
			t.Fatalf("score %d: %d %s", i, resp.StatusCode, body)
		}
	}
	metrics, _ := scrape(t, ts)
	ts.Close()
	s.Close() // drains the exporter

	if !sink.contains(upstreamTraceID) {
		t.Error("collector never received a span with the adopted trace ID")
	}
	if !sink.contains(`"hdfe.route"`) || !sink.contains(`"resourceSpans"`) {
		t.Error("collector payloads missing OTLP/JSON structure")
	}
	if !sink.contains("encode") {
		t.Error("no stage child span reached the collector")
	}
	for _, want := range []string{
		`hdfe_trace_sampled_total{decision="head"}`,
		"hdfe_trace_exported_total",
		"hdfe_trace_dropped_total",
	} {
		if !bytes.Contains([]byte(metrics), []byte(want)) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

// metricValue extracts one un-labelled counter/gauge value from an
// exposition body.
func metricValue(t *testing.T, metrics, name string) float64 {
	t.Helper()
	m := regexp.MustCompile(`(?m)^` + name + ` ([0-9eE.+-]+)$`).FindStringSubmatch(metrics)
	if m == nil {
		t.Fatalf("metric %s not found", name)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestChaosExportStallScoresUnaffected is the acceptance scenario: with
// a 500ms injected stall at the export point and a 2-span queue, every
// score is bit-identical to an exporter-off run, requests never wait on
// the wedged exporter, and the overflow is counted in
// hdfe_trace_dropped_total rather than blocking.
func TestChaosExportStallScoresUnaffected(t *testing.T) {
	const n = 24
	dep := testDeployment(t, 128)
	d := synth.PimaM(7)

	score := func(s *Server) []float64 {
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		out := make([]float64, n)
		for i := range out {
			resp, body := postScore(t, ts, floats(d.X[i%len(d.X)]...), nil)
			if resp.StatusCode != 200 {
				t.Fatalf("score %d: %d %s", i, resp.StatusCode, body)
			}
			var sr scoreResponse
			if err := json.Unmarshal(body, &sr); err != nil {
				t.Fatal(err)
			}
			out[i] = sr.Score
		}
		return out
	}

	// Baseline: no exporter at all.
	base := New(dep, Config{MaxWait: time.Millisecond, TraceSeed: 42})
	want := score(base)
	base.Close()

	// Same traffic with the exporter wedged: 500ms per POST attempt
	// against a 2-span queue, head sampling keeping every trace.
	var posts atomic.Uint64
	col := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		posts.Add(1)
	}))
	defer col.Close()
	inj, err := chaos.Parse("export:delay=500ms", 1)
	if err != nil {
		t.Fatal(err)
	}
	s := New(dep, Config{
		MaxWait:         time.Millisecond,
		TraceSeed:       42,
		OTLPEndpoint:    col.URL,
		TraceSample:     1,
		ExportQueue:     2,
		Chaos:           inj,
		ShutdownTimeout: 3 * time.Second,
	})
	start := time.Now()
	got := score(s)
	elapsed := time.Since(start)

	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Errorf("score %d: %v with a stalled exporter, %v without (not bit-identical)", i, got[i], want[i])
		}
	}
	// 24 requests against a worker that spends 500ms per export attempt:
	// if scoring ever waited on the exporter the run would take >= 12s.
	if elapsed > 8*time.Second {
		t.Errorf("scoring took %v under a stalled exporter — requests are waiting on export", elapsed)
	}

	ts := httptest.NewServer(s.Handler())
	metrics, _ := scrape(t, ts)
	ts.Close()
	if dropped := metricValue(t, metrics, "hdfe_trace_dropped_total"); dropped <= 0 {
		t.Errorf("hdfe_trace_dropped_total = %v, want > 0 (overflow must be dropped, not queued)", dropped)
	}
	// With fraction 1 every trace is kept; a trace that happens to cross
	// the live-p99 cutoff is kept as "slow" instead of "head" (slow
	// outranks head in the sampler precedence), so count both.
	head := metricValue(t, metrics, `hdfe_trace_sampled_total{decision="head"}`)
	slow := metricValue(t, metrics, `hdfe_trace_sampled_total{decision="slow"}`)
	if head+slow < n {
		t.Errorf("sampled %v head + %v slow traces, want >= %d kept", head, slow, n)
	}
	s.Close()
	if inj.Fired(chaos.PointExport) == 0 {
		t.Error("export chaos point never fired")
	}
}

// TestExemplarsOnLatencyHistogram pins satellite exposure: once a
// traced request lands, the request-duration histogram carries an
// OpenMetrics exemplar referencing a real trace ID.
func TestExemplarsOnLatencyHistogram(t *testing.T) {
	dep := testDeployment(t, 128)
	s := New(dep, Config{MaxWait: time.Millisecond, TraceSeed: 42})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	d := synth.PimaM(7)
	resp, body := postScore(t, ts, floats(d.X[0]...), map[string]string{"traceparent": upstreamTraceparent})
	if resp.StatusCode != 200 {
		t.Fatalf("score: %d %s", resp.StatusCode, body)
	}
	metrics, _ := scrape(t, ts)
	ex := regexp.MustCompile(
		`(?m)^hdserve_request_duration_seconds_bucket\{[^}]*\} [0-9]+ # \{trace_id="` + upstreamTraceID + `"\} [0-9.eE+-]+ [0-9]+\.[0-9]{3}$`)
	if !ex.MatchString(metrics) {
		t.Errorf("no exemplar with the request's trace ID on the latency histogram:\n%s",
			firstMatching(metrics, "hdserve_request_duration_seconds_bucket"))
	}
}

// firstMatching returns the first few exposition lines containing sub,
// for failure messages.
func firstMatching(metrics, sub string) string {
	var out []string
	for _, line := range bytes.Split([]byte(metrics), []byte("\n")) {
		if bytes.Contains(line, []byte(sub)) {
			out = append(out, string(line))
			if len(out) == 4 {
				break
			}
		}
	}
	return fmt.Sprint(out)
}

// TestDebugSLOEndpoint pins the /debug/slo surface: live traffic shows
// up in the windows, and a burst of 429 sheds drives the availability
// objective into fast_burn on the wire-visible state field.
func TestDebugSLOEndpoint(t *testing.T) {
	dep := testDeployment(t, 128)
	s := New(dep, Config{MaxWait: time.Millisecond, TraceSeed: 42})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	d := synth.PimaM(7)

	getSLO := func() (snap struct {
		Target            float64 `json:"target"`
		AvailabilityState string  `json:"availability_state"`
		Windows           []struct {
			Window   string  `json:"window"`
			Requests uint64  `json:"requests"`
			Errors   uint64  `json:"errors"`
			Burn     float64 `json:"availability_burn_rate"`
		} `json:"windows"`
	}) {
		t.Helper()
		res, err := ts.Client().Get(ts.URL + "/debug/slo")
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		if err := json.NewDecoder(res.Body).Decode(&snap); err != nil {
			t.Fatal(err)
		}
		return snap
	}

	for i := 0; i < 8; i++ {
		if resp, body := postScore(t, ts, floats(d.X[i]...), nil); resp.StatusCode != 200 {
			t.Fatalf("score: %d %s", resp.StatusCode, body)
		}
	}
	snap := getSLO()
	if snap.Target != 0.999 {
		t.Errorf("target %v, want the 0.999 default", snap.Target)
	}
	if len(snap.Windows) != 4 || snap.Windows[0].Requests < 8 {
		t.Fatalf("5m window %+v, want >= 8 requests", snap.Windows)
	}
	if snap.AvailabilityState != "ok" {
		t.Errorf("availability %s on clean traffic, want ok", snap.AvailabilityState)
	}

	// Validation 400s are the client's fault — they must not burn the
	// budget. Sheds are ours — they must.
	for i := 0; i < 4; i++ {
		postScore(t, ts, floats(1, 2), nil)
	}
	if got := getSLO().Windows[0].Errors; got != 0 {
		t.Errorf("%d availability errors after client 400s, want 0", got)
	}
	for i := 0; i < 8; i++ {
		at := s.tracer.StartWith("score", obs.TraceContext{})
		at.SetShed(ShedQueueFull.String())
		tr := at.Finish(429)
		s.slo.Observe(tr.Status, tr.Total)
	}
	snap = getSLO()
	if snap.AvailabilityState != "fast_burn" {
		t.Errorf("availability %s after a shed burst, want fast_burn (burn %v)",
			snap.AvailabilityState, snap.Windows[0].Burn)
	}
}
