package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hdfe/internal/core"
	"hdfe/internal/obs"
	"hdfe/internal/synth"
)

// testDeployment fits a small-dimensionality deployment on the synthetic
// Pima M dataset — cheap enough that load tests stay fast under -race.
func testDeployment(t testing.TB, dim int) *core.Deployment {
	t.Helper()
	d := synth.PimaM(7)
	dep, err := core.BuildDeployment(core.SpecsFor(d.Features), d.X, d.Y, core.Options{Dim: dim, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return dep
}

func postJSON(t testing.TB, client *http.Client, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func floats(vs ...float64) []*float64 {
	out := make([]*float64, len(vs))
	for i := range vs {
		v := vs[i]
		out[i] = &v
	}
	return out
}

func TestScoreMatchesDirectScore(t *testing.T) {
	dep := testDeployment(t, 256)
	s := New(dep, Config{MaxWait: time.Millisecond})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	d := synth.PimaM(7)
	for i := 0; i < 20; i++ {
		row := d.X[i]
		resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/score", scoreRequest{Features: floats(row...)})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("row %d: status %d: %s", i, resp.StatusCode, body)
		}
		var sr scoreResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatal(err)
		}
		if want := dep.Score(row); sr.Score != want {
			t.Fatalf("row %d: served score %v, direct Score %v", i, sr.Score, want)
		}
		wantPred := 0
		if sr.Score >= 0.5 {
			wantPred = 1
		}
		if sr.Prediction != wantPred {
			t.Fatalf("row %d: prediction %d for score %v", i, sr.Prediction, sr.Score)
		}
	}
}

func TestScoreMissingValueMatchesNaNContract(t *testing.T) {
	dep := testDeployment(t, 256)
	s := New(dep, Config{MaxWait: time.Millisecond})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	row := synth.PimaM(7).X[0]
	feats := floats(row...)
	feats[4] = nil // missing Insulin
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/score", scoreRequest{Features: feats})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sr scoreResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	nan := append([]float64(nil), row...)
	nan[4] = math.NaN()
	if want := dep.Score(nan); sr.Score != want {
		t.Fatalf("null-feature score %v, NaN-row Score %v", sr.Score, want)
	}
}

func TestBatchEndpointAndWarnings(t *testing.T) {
	dep := testDeployment(t, 256)
	s := New(dep, Config{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	d := synth.PimaM(7)
	outlier := append([]float64(nil), d.X[1]...)
	outlier[5] = 1e9 // BMI far above the fitted max: clamped + warned
	req := batchScoreRequest{Records: [][]*float64{floats(d.X[0]...), floats(outlier...)}}
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/score/batch", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var br batchScoreResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Scores) != 2 || len(br.Predictions) != 2 {
		t.Fatalf("got %d scores, %d predictions", len(br.Scores), len(br.Predictions))
	}
	if want := dep.Score(d.X[0]); br.Scores[0] != want {
		t.Fatalf("batch score %v, direct %v", br.Scores[0], want)
	}
	if want := dep.Score(outlier); br.Scores[1] != want {
		t.Fatalf("clamped batch score %v, direct %v", br.Scores[1], want)
	}
	if len(br.Warnings) != 1 || br.Warnings[0].Index != 1 {
		t.Fatalf("warnings %+v, want one clamp warning on record 1", br.Warnings)
	}
}

func TestValidationErrorsOverHTTP(t *testing.T) {
	dep := testDeployment(t, 256)
	s := New(dep, Config{RejectMissing: true})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name string
		body string
	}{
		{"wrong arity", `{"features":[1,2]}`},
		{"missing rejected by policy", `{"features":[1,2,3,4,null,6,7,8]}`},
		{"unknown field", `{"rows":[[1]]}`},
		{"malformed JSON", `{"features":`},
	}
	for _, tc := range cases {
		resp, err := ts.Client().Post(ts.URL+"/v1/score", "application/json", bytes.NewReader([]byte(tc.body)))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d: %s", tc.name, resp.StatusCode, body)
		}
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/score")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/score: status %d", resp.StatusCode)
	}
	var snap Snapshot
	resp, err = ts.Client().Get(ts.URL + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap.ValidationErrors < 2 {
		t.Errorf("validation_errors = %d, want >= 2", snap.ValidationErrors)
	}
}

func TestHealthz(t *testing.T) {
	dep := testDeployment(t, 256)
	s := New(dep, Config{ModelName: "pima-test"})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		Status   string   `json:"status"`
		Model    string   `json:"model"`
		Dim      int      `json:"dim"`
		Features []string `json:"features"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Model != "pima-test" || h.Dim != 256 || len(h.Features) != 8 {
		t.Fatalf("healthz %+v", h)
	}
}

// TestLoadConcurrentClients is the acceptance load test: 64 concurrent
// clients, 500 single-record requests each, against one server instance.
// Every answer must be bit-identical to a direct Deployment.Score call,
// and the microbatcher must demonstrably coalesce (batch-size histogram
// mass above size 1). Run with -race in CI (make test-race).
func TestLoadConcurrentClients(t *testing.T) {
	const (
		clients     = 64
		perClient   = 500
		distinctRow = 100
	)
	dep := testDeployment(t, 128)
	s := New(dep, Config{MaxBatch: 64, MaxWait: 500 * time.Microsecond})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	tr := ts.Client().Transport.(*http.Transport).Clone()
	tr.MaxIdleConns = clients * 2
	tr.MaxIdleConnsPerHost = clients * 2
	client := &http.Client{Transport: tr}

	d := synth.PimaM(7)
	rows := make([][]float64, distinctRow)
	want := make([]float64, distinctRow)
	for i := range rows {
		rows[i] = d.X[i%len(d.X)]
		want[i] = dep.Score(rows[i])
	}

	var wg sync.WaitGroup
	var failures atomic.Int64
	errc := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < perClient; k++ {
				i := (c*31 + k) % distinctRow
				body, err := json.Marshal(scoreRequest{Features: floats(rows[i]...)})
				if err != nil {
					errc <- err
					return
				}
				resp, err := client.Post(ts.URL+"/v1/score", "application/json", bytes.NewReader(body))
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
				var sr scoreResponse
				if err := json.Unmarshal(out, &sr); err != nil {
					errc <- err
					return
				}
				if sr.Score != want[i] {
					failures.Add(1)
					errc <- fmt.Errorf("client %d req %d: score %v, want %v", c, k, sr.Score, want[i])
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if t.Failed() {
		t.Fatalf("%d score mismatches", failures.Load())
	}

	snap := s.Metrics().Snapshot()
	if snap.ScoreRequests != clients*perClient {
		t.Errorf("score_requests = %d, want %d", snap.ScoreRequests, clients*perClient)
	}
	if snap.RecordsScored != clients*perClient {
		t.Errorf("records_scored = %d, want %d", snap.RecordsScored, clients*perClient)
	}
	if snap.Batches == 0 {
		t.Fatal("no batches recorded")
	}
	var coalesced uint64
	for _, b := range snap.BatchSizes {
		if b.Size != "1" {
			coalesced += b.Count
		}
	}
	if coalesced == 0 {
		t.Errorf("batch-size histogram %+v has no batches above size 1: microbatcher never coalesced", snap.BatchSizes)
	}
	if snap.MeanBatchSize <= 1.0 {
		t.Errorf("mean batch size %v, want > 1 under %d concurrent clients", snap.MeanBatchSize, clients)
	}
	// The tracer ran for every one of those bit-identical responses: all
	// 32k requests crossed every pipeline stage, so concurrent scoring
	// under the tracer is exactly untraced scoring plus accounting.
	for _, st := range s.Tracer().StageSnapshot() {
		if st.Count != clients*perClient {
			t.Errorf("stage %s observed %d requests, want %d", st.Stage, st.Count, clients*perClient)
		}
	}
	recent, slowest := s.Tracer().TraceViews()
	if len(recent) == 0 || len(slowest) == 0 {
		t.Errorf("trace rings empty after load: recent=%d slowest=%d", len(recent), len(slowest))
	}
	t.Logf("load: %s", snap)
}

// TestGracefulShutdownDrains verifies the drain contract: requests
// accepted before shutdown all receive correct responses, even when they
// are sitting in an open microbatch when the listener closes.
func TestGracefulShutdownDrains(t *testing.T) {
	const inflight = 96
	dep := testDeployment(t, 128)
	// A large MaxBatch and long MaxWait hold requests in an open batch so
	// shutdown provably overlaps queued work.
	s := New(dep, Config{MaxBatch: 256, MaxWait: 300 * time.Millisecond, RequestTimeout: 10 * time.Second})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(ctx, ln) }()

	url := "http://" + ln.Addr().String()
	row := synth.PimaM(7).X[0]
	want := dep.Score(row)
	body, _ := json.Marshal(scoreRequest{Features: floats(row...)})

	tr := &http.Transport{MaxIdleConnsPerHost: inflight}
	client := &http.Client{Transport: tr, Timeout: 15 * time.Second}

	var wg sync.WaitGroup
	results := make(chan error, inflight)
	for i := 0; i < inflight; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := client.Post(url+"/v1/score", "application/json", bytes.NewReader(body))
			if err != nil {
				results <- err
				return
			}
			out, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				results <- err
				return
			}
			if resp.StatusCode != http.StatusOK {
				results <- fmt.Errorf("status %d: %s", resp.StatusCode, out)
				return
			}
			var sr scoreResponse
			if err := json.Unmarshal(out, &sr); err != nil {
				results <- err
				return
			}
			if sr.Score != want {
				results <- fmt.Errorf("drained score %v, want %v", sr.Score, want)
				return
			}
			results <- nil
		}()
	}

	// Wait until every request has been accepted by a handler (the counter
	// increments at handler entry), then pull the plug mid-batch.
	deadline := time.Now().Add(10 * time.Second)
	for s.metrics.scoreRequests.Load() < inflight {
		if time.Now().After(deadline) {
			t.Fatal("handlers never accepted all requests")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()

	wg.Wait()
	close(results)
	dropped := 0
	for err := range results {
		if err != nil {
			dropped++
			t.Error(err)
		}
	}
	if dropped > 0 {
		t.Fatalf("%d of %d in-flight requests dropped during shutdown", dropped, inflight)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve returned %v", err)
	}
	if got := s.metrics.recordsScored.Load(); got != inflight {
		t.Errorf("records_scored = %d, want %d", got, inflight)
	}
}

// TestServeListenerError ensures Serve surfaces listener failures and
// still closes the batcher.
func TestServeListenerError(t *testing.T) {
	dep := testDeployment(t, 128)
	s := New(dep, Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln.Close() // Serve on a closed listener must fail fast
	if err := s.Serve(context.Background(), ln); err == nil {
		t.Fatal("Serve on a closed listener succeeded")
	}
	if _, _, _, err := s.batcher.submitTimed(context.Background(), synth.PimaM(7).X[0], obs.TraceContext{}); err != ErrClosed {
		t.Fatalf("batcher accepting work after Serve returned: %v", err)
	}
}
