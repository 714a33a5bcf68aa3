package serve

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hdfe/internal/chaos"
	"hdfe/internal/obs/prof"
	"hdfe/internal/synth"
)

// profIndex mirrors the /debug/prof JSON for decoding in tests.
type profIndex struct {
	Profiling struct {
		IntervalMs    int64             `json:"interval_ms"`
		CPUDurationMs int64             `json:"cpu_duration_ms"`
		Captures      map[string]uint64 `json:"captures"`
		Failures      uint64            `json:"failures"`
	} `json:"profiling"`
	Captures  []prof.CaptureMeta   `json:"captures"`
	Watchdogs []prof.WatchdogState `json:"watchdogs"`
}

func getProfIndex(t *testing.T, client *http.Client, base string) profIndex {
	t.Helper()
	resp, err := client.Get(base + "/debug/prof")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/prof status %d", resp.StatusCode)
	}
	var idx profIndex
	if err := json.NewDecoder(resp.Body).Decode(&idx); err != nil {
		t.Fatal(err)
	}
	return idx
}

// gunzipProfile inflates a downloaded capture, failing the test unless it
// is the gzipped protobuf runtime/pprof writes.
func gunzipProfile(t *testing.T, blob []byte) []byte {
	t.Helper()
	zr, err := gzip.NewReader(bytes.NewReader(blob))
	if err != nil {
		t.Fatalf("not a gzipped pprof blob: %v", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("not a gzipped pprof blob: %v", err)
	}
	return raw
}

// hotFrame reports whether a CPU profile names a scoring-pipeline frame.
// runtime/pprof stores function names verbatim in the profile's string
// table, so no profile parser is needed.
func hotFrame(t *testing.T, blob []byte) bool {
	t.Helper()
	raw := gunzipProfile(t, blob)
	return bytes.Contains(raw, []byte("hdfe/internal/encode.")) ||
		bytes.Contains(raw, []byte("hdfe/internal/hv."))
}

// downloadCapture fetches /debug/prof/{id}; ok is false when the capture
// was evicted from the ring between listing and download.
func downloadCapture(t *testing.T, client *http.Client, base string, id uint64) (blob []byte, ok bool) {
	t.Helper()
	resp, err := client.Get(fmt.Sprintf("%s/debug/prof/%d", base, id))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	blob, err = io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotFound:
		return nil, false
	default:
		t.Fatalf("download %d: status %d", id, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Errorf("download Content-Type %q", ct)
	}
	return blob, true
}

// TestLoadProfilerOnBitIdentical is the tentpole acceptance test: 64
// concurrent batch-scoring clients with the profiler capturing at an
// aggressive cadence. Every score must be bit-identical (Float64bits) to
// a direct Deployment.Score call, and /debug/prof must end up listing a
// downloadable CPU profile that names an encode/hv frame.
func TestLoadProfilerOnBitIdentical(t *testing.T) {
	const clients = 64
	dep := testDeployment(t, 1024)
	s := New(dep, Config{
		MaxInFlight: -1,
		Prof: prof.Config{
			Interval:    150 * time.Millisecond,
			CPUDuration: 75 * time.Millisecond,
			Watchdog:    prof.WatchdogConfig{Tick: 50 * time.Millisecond},
		},
	})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	tr := ts.Client().Transport.(*http.Transport).Clone()
	tr.MaxIdleConns = clients * 2
	tr.MaxIdleConnsPerHost = clients * 2
	client := &http.Client{Transport: tr}

	d := synth.PimaM(7)
	const batchRows = 64
	rows := make([][]float64, batchRows)
	want := make([]uint64, batchRows)
	recs := make([][]*float64, batchRows)
	for i := range rows {
		rows[i] = d.X[i%len(d.X)]
		want[i] = math.Float64bits(dep.Score(rows[i]))
		recs[i] = floats(rows[i]...)
	}
	body, err := json.Marshal(batchScoreRequest{Records: recs})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var requests atomic.Int64
	errc := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; ; k++ {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := client.Post(ts.URL+"/v1/score/batch", "application/json", bytes.NewReader(body))
				if err != nil {
					errc <- err
					return
				}
				out, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errc <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("client %d req %d: status %d: %s", c, k, resp.StatusCode, out)
					return
				}
				var br batchScoreResponse
				if err := json.Unmarshal(out, &br); err != nil {
					errc <- err
					return
				}
				for i, sc := range br.Scores {
					if math.Float64bits(sc) != want[i] {
						errc <- fmt.Errorf("client %d req %d row %d: score %x, want %x (profiler perturbation)",
							c, k, i, math.Float64bits(sc), want[i])
						return
					}
				}
				requests.Add(1)
			}
		}(c)
	}

	// While the load runs, download each new CPU capture the ring lists
	// until one names a scoring-pipeline frame.
	deadline := time.Now().Add(60 * time.Second)
	seen := map[uint64]bool{}
	var captureID uint64
	for time.Now().Before(deadline) && captureID == 0 {
		select {
		case err := <-errc:
			close(stop)
			wg.Wait()
			t.Fatal(err)
		default:
		}
		for _, c := range getProfIndex(t, client, ts.URL).Captures {
			if c.Kind != prof.KindCPU || seen[c.ID] {
				continue
			}
			seen[c.ID] = true
			if blob, ok := downloadCapture(t, client, ts.URL, c.ID); ok && hotFrame(t, blob) {
				captureID = c.ID
				break
			}
		}
		if captureID == 0 {
			time.Sleep(50 * time.Millisecond)
		}
	}
	close(stop)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}
	if captureID == 0 {
		t.Fatal("no CPU capture named an internal/encode or internal/hv frame within the deadline")
	}
	t.Logf("bit-identity held across %d batch requests (%d records); capture %d names the hot frame",
		requests.Load(), requests.Load()*batchRows, captureID)

	// The scheduled captures also exported through /metrics.
	mbody, _ := scrape(t, ts)
	if !strings.Contains(mbody, `hdfe_prof_captures_total{kind="cpu"}`) ||
		!strings.Contains(mbody, "hdfe_runtime_goroutines") {
		t.Error("profiler families missing from /metrics under load")
	}
}

// TestPprofProfileHonorsContext pins that a client hanging up 100ms into
// a 30-second profile or trace download stops the capture at disconnect,
// and that the aborted CPU capture counts as a profiler failure.
func TestPprofProfileHonorsContext(t *testing.T) {
	dep := testDeployment(t, 128)
	s := New(dep, Config{
		EnablePprof: true,
		Prof:        prof.Config{Interval: -1, Watchdog: prof.WatchdogConfig{Disable: true}},
	})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, path := range []string{"/debug/pprof/profile?seconds=30", "/debug/pprof/trace?seconds=30"} {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+path, nil)
		if err != nil {
			cancel()
			t.Fatal(err)
		}
		start := time.Now()
		resp, err := ts.Client().Do(req)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		elapsed := time.Since(start)
		cancel()
		// The profiler's capture and the stdlib trace both wait on the
		// request context, so each returns at disconnect.
		if elapsed > 5*time.Second {
			t.Fatalf("%s: handler ran %v after client cancel, want prompt stop", path, elapsed)
		}
	}
	// The aborted CPU capture is a counted failure, not a ring entry. The
	// handler finishes asynchronously after the client disconnect, so give
	// the counter a moment.
	failDeadline := time.Now().Add(5 * time.Second)
	for s.Profiler().Failures() == 0 && time.Now().Before(failDeadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if s.Profiler().Failures() == 0 {
		t.Error("cancelled profile download not counted as a capture failure")
	}
	if s.Profiler().Ring().Len() != 0 {
		t.Error("cancelled capture must not be ring-kept")
	}
}

// TestPprofProfileDownload pins the happy path of the replacement
// handler: a short profile downloads as a gzipped pprof blob and lands
// in the ring tagged with the http trigger.
func TestPprofProfileDownload(t *testing.T) {
	dep := testDeployment(t, 128)
	s := New(dep, Config{
		EnablePprof: true,
		Prof:        prof.Config{Interval: -1, Watchdog: prof.WatchdogConfig{Disable: true}},
	})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/debug/pprof/profile?seconds=0.1")
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, blob)
	}
	gunzipProfile(t, blob)
	if list := s.Profiler().Ring().List(); len(list) != 1 ||
		list[0].Kind != prof.KindCPU || list[0].Trigger != prof.TriggerHTTP {
		t.Fatalf("http-triggered capture not in ring: %+v", list)
	}

	// Garbage seconds is a 400, not a hung capture.
	resp, err = ts.Client().Get(ts.URL + "/debug/pprof/profile?seconds=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus seconds: status %d, want 400", resp.StatusCode)
	}
}

// TestProfDebugEndpoints pins the /debug/prof surface: index shape,
// download headers, and the readOnly contract.
func TestProfDebugEndpoints(t *testing.T) {
	dep := testDeployment(t, 128)
	s := New(dep, Config{
		Prof: prof.Config{Interval: -1, Watchdog: prof.WatchdogConfig{Disable: true}},
	})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if _, err := s.Profiler().CaptureSnapshot(prof.KindHeap, prof.TriggerHTTP); err != nil {
		t.Fatal(err)
	}

	resp, err := ts.Client().Get(ts.URL + "/debug/prof")
	if err != nil {
		t.Fatal(err)
	}
	if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
		t.Errorf("Cache-Control %q, want no-store", cc)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	// The index is configuration, ring and watchdogs only: profile
	// analysis is `go tool pprof` on a download.
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 3 || keys["profiling"] == nil || keys["captures"] == nil || keys["watchdogs"] == nil {
		t.Fatalf("index keys: want exactly profiling, captures, watchdogs; got %s", raw)
	}
	var idx profIndex
	if err := json.Unmarshal(raw, &idx); err != nil {
		t.Fatal(err)
	}
	if idx.Profiling.IntervalMs != -1 || idx.Profiling.Captures["heap"] != 1 {
		t.Fatalf("index profiling block = %+v", idx.Profiling)
	}
	if len(idx.Captures) != 1 || idx.Captures[0].Kind != "heap" {
		t.Fatalf("index captures = %+v", idx.Captures)
	}
	id := idx.Captures[0].ID

	resp, err = ts.Client().Get(fmt.Sprintf("%s/debug/prof/%d", ts.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(blob) == 0 {
		t.Fatalf("download status %d, %d bytes", resp.StatusCode, len(blob))
	}
	if cd := resp.Header.Get("Content-Disposition"); !strings.Contains(cd, "heap-") {
		t.Errorf("Content-Disposition %q", cd)
	}

	for path, wantStatus := range map[string]int{
		"/debug/prof/999999": http.StatusNotFound,
		"/debug/prof/bogus":  http.StatusBadRequest,
	} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Errorf("%s: status %d, want %d", path, resp.StatusCode, wantStatus)
		}
	}

	// POST is rejected by the shared readOnly middleware.
	resp, err = ts.Client().Post(ts.URL+"/debug/prof", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /debug/prof: status %d, want 405", resp.StatusCode)
	}
}

// TestProfChaosInjection drives the sixth chaos point: injected capture
// failures are counted and keep the ring empty, while scoring is
// untouched (the fault is scoped to the profiler's capture path).
func TestProfChaosInjection(t *testing.T) {
	inj, err := chaos.Parse("prof:err=profiler slot busy", 1)
	if err != nil {
		t.Fatal(err)
	}
	dep := testDeployment(t, 128)
	s := New(dep, Config{
		Chaos: inj,
		Prof:  prof.Config{Interval: -1, Watchdog: prof.WatchdogConfig{Disable: true}},
	})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if _, err := s.Profiler().CaptureSnapshot(prof.KindHeap, prof.TriggerHTTP); err == nil {
		t.Fatal("want injected capture failure")
	}
	if _, err := s.Profiler().CaptureCPU(context.Background(), time.Millisecond, prof.TriggerHTTP); err == nil {
		t.Fatal("want injected cpu failure")
	}
	if got := s.Profiler().Failures(); got != 2 {
		t.Fatalf("failures = %d, want 2", got)
	}
	if s.Profiler().Ring().Len() != 0 {
		t.Fatal("injected failures must not land in the ring")
	}
	if inj.Fired(chaos.PointProf) != 2 {
		t.Fatalf("chaos fired = %d", inj.Fired(chaos.PointProf))
	}

	// Scoring never notices: the injector has no faults at scoring points.
	d := synth.PimaM(7)
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/score", scoreRequest{Features: floats(d.X[0]...)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("score under prof chaos: %d: %s", resp.StatusCode, body)
	}
	var sr scoreResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if want := dep.Score(d.X[0]); sr.Score != want {
		t.Fatalf("score %v, want %v", sr.Score, want)
	}

	// The failure count is visible in the exposition.
	mbody, _ := scrape(t, ts)
	if !strings.Contains(mbody, "hdfe_prof_capture_failures_total 2") {
		t.Error("exposition missing the injected failure count")
	}
}

// TestProfilerOverheadBounded pins the hot-path cost of profiling: with
// the profiler capturing at an aggressive cadence, direct ScoreBatch
// throughput must stay within a bounded factor of the profiler-off
// baseline, and every score stays bit-identical. Timing assertions are
// skipped under the race detector (instrumentation dwarfs the profiler's
// effect); bit-identity is asserted always.
func TestProfilerOverheadBounded(t *testing.T) {
	dep := testDeployment(t, 1024)
	d := synth.PimaM(7)
	rows := d.X[:256]
	base := dep.ScoreBatch(rows)

	const rounds = 30
	run := func() time.Duration {
		start := time.Now()
		for i := 0; i < rounds; i++ {
			got := dep.ScoreBatch(rows)
			for j := range got {
				if math.Float64bits(got[j]) != math.Float64bits(base[j]) {
					t.Fatalf("round %d row %d: score %x, want %x", i, j, math.Float64bits(got[j]), math.Float64bits(base[j]))
				}
			}
		}
		return time.Since(start)
	}

	off := run()

	p := prof.New(prof.Config{
		Interval:    100 * time.Millisecond,
		CPUDuration: 50 * time.Millisecond,
		Watchdog:    prof.WatchdogConfig{Tick: 25 * time.Millisecond},
	})
	p.Start()
	defer p.Close()
	// Let the first capture cycle begin before measuring.
	time.Sleep(150 * time.Millisecond)
	on := run()

	if raceEnabled {
		t.Logf("race build: profiler-off %v, profiler-on %v (bound not asserted)", off, on)
		return
	}
	// CPU profiling at this duty cycle costs a few percent; 2.5x is the
	// generous-but-meaningful tripwire for a runaway regression (e.g. a
	// capture accidentally holding a scoring lock).
	if limit := off*5/2 + 50*time.Millisecond; on > limit {
		t.Fatalf("ScoreBatch with profiler on took %v vs %v off (limit %v)", on, off, limit)
	}
	t.Logf("ScoreBatch %d rounds: %v off, %v on", rounds, off, on)
}

// BenchmarkScoreBatchProfiler quantifies profiling overhead on the
// scoring hot path:
//
//	go test ./internal/serve -bench ScoreBatchProfiler -benchmem
func BenchmarkScoreBatchProfiler(b *testing.B) {
	dep := testDeployment(b, 1024)
	rows := synth.PimaM(7).X[:256]
	b.Run("off", func(b *testing.B) {
		dst := make([]float64, len(rows))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dep.ScoreBatchInto(rows, dst)
		}
	})
	b.Run("on", func(b *testing.B) {
		p := prof.New(prof.Config{
			Interval:    100 * time.Millisecond,
			CPUDuration: 50 * time.Millisecond,
			Watchdog:    prof.WatchdogConfig{Tick: 25 * time.Millisecond},
		})
		p.Start()
		defer p.Close()
		dst := make([]float64, len(rows))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dep.ScoreBatchInto(rows, dst)
		}
	})
}
