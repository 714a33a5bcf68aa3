package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"hdfe/internal/hv"
)

// syncBuffer lets the test read run()'s stdout while the server goroutine
// is still writing to it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// The "serving" slog line carries the bound address as addr=HOST:PORT.
var addrRe = regexp.MustCompile(`addr=(\S+:\d+)`)

func TestRunWriteDemoAndServe(t *testing.T) {
	model := filepath.Join(t.TempDir(), "dep.bin")
	var out, errOut bytes.Buffer
	if err := run(context.Background(), []string{"-write-demo", model, "-dim", "256"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "wrote demo deployment") || !strings.Contains(out.String(), "dim=256") {
		t.Fatalf("write-demo output: %q", out.String())
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stdout := &syncBuffer{}
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-model", model, "-addr", "127.0.0.1:0", "-name", "smoke"}, stdout, &errOut)
	}()

	// The listening line carries the real port (we bound port 0).
	var addr string
	deadline := time.Now().Add(10 * time.Second)
	for addr == "" {
		if m := addrRe.FindStringSubmatch(stdout.String()); m != nil {
			addr = m[1]
		} else if time.Now().After(deadline) {
			t.Fatalf("server never reported its address; stdout %q", stdout.String())
		} else {
			time.Sleep(5 * time.Millisecond)
		}
	}
	// The kernel tier follows the address as a field of its own, so a
	// reader that takes the address as the non-space run after addr= (as
	// hdperf does) is unaffected.
	if want := "addr=" + addr + " kernels=" + hv.Kernels() + " "; !strings.Contains(stdout.String(), want) {
		t.Errorf("serving line lacks %q: %q", want, stdout.String())
	}

	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h struct {
		Status string `json:"status"`
		Model  string `json:"model"`
		Dim    int    `json:"dim"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h.Status != "ok" || h.Model != "smoke" || h.Dim != 256 {
		t.Fatalf("healthz %+v", h)
	}

	body := strings.NewReader(`{"features":[2,120,70,25,100,30.5,0.4,40]}`)
	resp, err = http.Post("http://"+addr+"/v1/score", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	var sr struct {
		Score float64 `json:"score"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || sr.Score < 0 || sr.Score > 1 {
		t.Fatalf("score status %d value %v", resp.StatusCode, sr.Score)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("run did not exit after context cancellation")
	}
	if !strings.Contains(stdout.String(), "drained and stopped") {
		t.Fatalf("shutdown line missing from stdout: %q", stdout.String())
	}
}

// serveAddrRe finds the bound address in the "serving" line, text or JSON.
var serveAddrRe = regexp.MustCompile(`addr(?:=|":")([^"\s]+:\d+)`)

// serveRun starts run with args on a free loopback port and returns the
// bound address, run's stdout, and a stop function that cancels the run
// and waits for it to return cleanly.
func serveRun(t *testing.T, args ...string) (addr string, stdout *syncBuffer, stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	stdout = &syncBuffer{}
	stderr := &syncBuffer{}
	done := make(chan error, 1)
	go func() { done <- run(ctx, append(args, "-addr", "127.0.0.1:0"), stdout, stderr) }()
	deadline := time.Now().Add(15 * time.Second)
	for addr == "" {
		if m := serveAddrRe.FindStringSubmatch(stdout.String()); m != nil {
			addr = m[1]
			continue
		}
		select {
		case err := <-done:
			cancel()
			t.Fatalf("run %v exited before serving: %v; stderr %q", args, err, stderr.String())
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			cancel()
			t.Fatalf("server never reported its address; stdout %q", stdout.String())
		}
	}
	stop = func() {
		t.Helper()
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("run returned %v", err)
			}
		case <-time.After(15 * time.Second):
			t.Fatal("run did not exit after context cancellation")
		}
	}
	return addr, stdout, stop
}

// postScore posts body to /v1/score and returns the status and body.
func postScore(t *testing.T, addr, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post("http://"+addr+"/v1/score", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// requestLines returns the JSON "request" log lines in out.
func requestLines(t *testing.T, out string) []map[string]any {
	t.Helper()
	var lines []map[string]any
	for _, line := range strings.Split(out, "\n") {
		if !strings.Contains(line, `"msg":"request"`) {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("request log line %q: %v", line, err)
		}
		lines = append(lines, m)
	}
	return lines
}

const okRecord = `{"features":[2,120,70,25,100,30.5,0.4,40]}`

// TestRunJSONLogsAndPprof drives the observability flags end to end:
// -log-format json emits machine-parseable logs, the request line of a
// 200 appears only at -log-level debug (a 4xx logs at Warn by default),
// and -pprof mounts the profiling handlers.
func TestRunJSONLogsAndPprof(t *testing.T) {
	addr, stdout, stop := serveRun(t, "-demo", "-dim", "128", "-log-format", "json", "-pprof")
	if want := `"addr":"` + addr + `","kernels":"` + hv.Kernels() + `"`; !strings.Contains(stdout.String(), want) {
		t.Errorf("serving line lacks %s: %q", want, stdout.String())
	}
	if code, body := postScore(t, addr, okRecord); code != http.StatusOK {
		t.Fatalf("score status %d: %s", code, body)
	}
	if code, body := postScore(t, addr, `{"features":[1]}`); code != http.StatusBadRequest {
		t.Fatalf("wrong-arity score status %d: %s", code, body)
	}

	resp, err := http.Get("http://" + addr + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof index status %d with -pprof", resp.StatusCode)
	}

	resp, err = http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(prom), "hdserve_stage_duration_seconds_bucket") {
		t.Errorf("/metrics missing stage histograms:\n%.400s", prom)
	}
	stop()

	// At the default level only the 400 logs, as a warning.
	lines := requestLines(t, stdout.String())
	if len(lines) != 1 || lines[0]["status"] != float64(400) || lines[0]["level"] != "WARN" {
		t.Errorf("default-level request lines %v, want only the 400 at WARN", lines)
	}

	// At debug the 200 logs too, with trace_id/route/status.
	addr, stdout, stop = serveRun(t, "-demo", "-dim", "128", "-log-format", "json", "-log-level", "debug")
	if code, body := postScore(t, addr, okRecord); code != http.StatusOK {
		t.Fatalf("score status %d: %s", code, body)
	}
	stop()
	lines = requestLines(t, stdout.String())
	if len(lines) != 1 {
		t.Fatalf("debug-level request lines %v, want one", lines)
	}
	if l := lines[0]; l["route"] != "score" || l["trace_id"] == nil || l["status"] != float64(200) || l["level"] != "DEBUG" {
		t.Errorf("request log %v", l)
	}
}

// TestRunRejectFlags drives -reject-missing and -reject-out-of-range end
// to end: a null feature and an out-of-range Glucose each get a 400 that
// names the feature, the range rejection carrying the value and the
// fitted bounds, while a default server clamps the same Glucose and
// answers 200 with a warning.
func TestRunRejectFlags(t *testing.T) {
	const (
		missing    = `{"features":[2,120,null,25,100,30.5,0.4,40]}`
		outOfRange = `{"features":[2,999,70,25,100,30.5,0.4,40]}`
	)
	type errBody struct {
		Details []struct {
			Feature string   `json:"feature"`
			Value   *float64 `json:"value"`
			Min     *float64 `json:"min"`
			Max     *float64 `json:"max"`
		} `json:"details"`
	}
	addr, _, stop := serveRun(t, "-demo", "-dim", "128", "-reject-missing", "-reject-out-of-range")
	for _, tc := range []struct{ body, feature string }{
		{missing, "BloodPressure"},
		{outOfRange, "Glucose"},
	} {
		code, body := postScore(t, addr, tc.body)
		var eb errBody
		if err := json.Unmarshal(body, &eb); err != nil {
			t.Fatal(err)
		}
		if code != http.StatusBadRequest || len(eb.Details) != 1 || eb.Details[0].Feature != tc.feature {
			t.Errorf("%s: status %d body %s, want a 400 naming %s", tc.body, code, body, tc.feature)
			continue
		}
		if tc.body == outOfRange {
			d := eb.Details[0]
			if d.Value == nil || *d.Value != 999 || d.Min == nil || d.Max == nil || *d.Max >= 999 {
				t.Errorf("range rejection details %s, want value 999 with the fitted min and max", body)
			}
		}
	}
	stop()

	addr, _, stop = serveRun(t, "-demo", "-dim", "128")
	code, body := postScore(t, addr, outOfRange)
	var sr struct {
		Warnings []string `json:"warnings"`
	}
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if code != http.StatusOK || len(sr.Warnings) != 1 || !strings.Contains(sr.Warnings[0], `"Glucose"`) ||
		!strings.Contains(sr.Warnings[0], "clamped") {
		t.Errorf("default server: status %d body %s, want 200 with a Glucose clamp warning", code, body)
	}
	stop()
}

// TestRunModelLifecycle drives the lifecycle surface end to end: boot
// with -model and -shadow, hot-swap via SIGHUP, promote a different
// artifact through /admin/models/load, and watch /v1/models and the
// model_version metric labels track every step.
func TestRunModelLifecycle(t *testing.T) {
	dir := t.TempDir()
	modelA := filepath.Join(dir, "a.bin")
	modelB := filepath.Join(dir, "b.bin")
	var out, errOut bytes.Buffer
	if err := run(context.Background(), []string{"-write-demo", modelA, "-dim", "128", "-seed", "42"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"-write-demo", modelB, "-dim", "128", "-seed", "43"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stdout := &syncBuffer{}
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-model", modelA, "-shadow", modelB, "-name", "boot",
			"-addr", "127.0.0.1:0"}, stdout, &errOut)
	}()

	var addr string
	deadline := time.Now().Add(10 * time.Second)
	for addr == "" {
		if m := addrRe.FindStringSubmatch(stdout.String()); m != nil {
			addr = m[1]
		} else if time.Now().After(deadline) {
			t.Fatalf("server never reported its address; stdout %q", stdout.String())
		} else {
			time.Sleep(5 * time.Millisecond)
		}
	}

	type info struct {
		Version uint64 `json:"version"`
		Name    string `json:"name"`
		Path    string `json:"path"`
		SHA256  string `json:"sha256"`
	}
	type models struct {
		Active info   `json:"active"`
		Shadow *info  `json:"shadow"`
		Swaps  uint64 `json:"swaps"`
		Loaded []info `json:"loaded"`
	}
	getModels := func() models {
		t.Helper()
		resp, err := http.Get("http://" + addr + "/v1/models")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m models
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		return m
	}

	m := getModels()
	if m.Active.Version != 1 || m.Active.Name != "boot" || m.Active.Path != modelA || len(m.Active.SHA256) != 64 {
		t.Fatalf("boot active %+v", m.Active)
	}
	if m.Shadow == nil || m.Shadow.Version != 2 || m.Shadow.Path != modelB {
		t.Fatalf("boot shadow %+v", m.Shadow)
	}

	// SIGHUP re-reads -model and promotes the fresh copy as version 3.
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(10 * time.Second)
	for getModels().Active.Version != 3 {
		if time.Now().After(deadline) {
			t.Fatalf("SIGHUP reload never landed; registry %+v stdout %q", getModels(), stdout.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	m = getModels()
	if m.Active.Path != modelA || m.Swaps != 1 {
		t.Fatalf("after SIGHUP: %+v", m)
	}
	if !strings.Contains(stdout.String(), "model reloaded") {
		t.Errorf("no reload log line; stdout %q", stdout.String())
	}

	// The admin endpoint promotes a different artifact as version 4.
	resp, err := http.Post("http://"+addr+"/admin/models/load", "application/json",
		strings.NewReader(`{"path":`+strconv.Quote(modelB)+`,"name":"b"}`))
	if err != nil {
		t.Fatal(err)
	}
	loadBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("admin load status %d body %s", resp.StatusCode, loadBody)
	}
	m = getModels()
	if m.Active.Version != 4 || m.Active.Name != "b" || m.Swaps != 2 || len(m.Loaded) != 4 {
		t.Fatalf("after admin load: %+v", m)
	}

	// Scoring now attributes to version 4, and the exposition carries the
	// model_version label plus the swap counter.
	resp, err = http.Post("http://"+addr+"/v1/score", "application/json",
		strings.NewReader(`{"features":[2,120,70,25,100,30.5,0.4,40]}`))
	if err != nil {
		t.Fatal(err)
	}
	var sr struct {
		ModelVersion uint64 `json:"model_version"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if sr.ModelVersion != 4 {
		t.Errorf("score attributed to version %d, want 4", sr.ModelVersion)
	}
	resp, err = http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"hdserve_model_swaps_total 2",
		`model_version="4"`,
	} {
		if !strings.Contains(string(prom), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("run did not exit after context cancellation")
	}
}

func TestRunFlagErrors(t *testing.T) {
	var out, errOut bytes.Buffer
	ctx := context.Background()
	cases := [][]string{
		{},                                  // no model
		{"-model", "/nonexistent"},          // unreadable model
		{"-demo", "-model", "x"},            // conflicting sources
		{"-bogus"},                          // unknown flag
		{"-demo", "positional-arg"},         // stray positional
		{"-demo", "-log-format", "xml"},     // unknown log format
		{"-demo", "-log-level", "loud"},     // unknown log level
		{"-demo", "-max-batch", "32"},       // unknown flag
		{"-demo", "-max-wait", "0"},         // unknown flag
		{"-demo", "-queue-depth", "64"},     // unknown flag
		{"-demo", "-request-timeout", "5s"}, // unknown flag (-timeout)
	}
	// Retired flags: their values are constants at the old defaults.
	for _, f := range []string{"-psi-warn=0.25", "-clamp-warn=0.01", "-score-window=4096",
		"-feedback-cap=4096", "-quality-window=1024", "-quality-tol=0.05", "-prof-ring=16",
		"-watchdog=true", "-audit-max-bytes=8388608", "-audit-queue=4096", "-audit-ring=64"} {
		cases = append(cases, []string{"-demo", f})
	}
	for _, args := range cases {
		if err := run(ctx, args, &out, &errOut); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
	// A corrupt model file must fail cleanly, not panic.
	bad := filepath.Join(t.TempDir(), "bad.bin")
	if err := os.WriteFile(bad, []byte("not a deployment"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(ctx, []string{"-model", bad}, &out, &errOut); err == nil {
		t.Error("corrupt model accepted")
	}
}
