package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"sync"
	"testing"
	"time"

	"hdfe/internal/chaos"
	"hdfe/internal/core"
	"hdfe/internal/obs"
	"hdfe/internal/synth"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal(msg)
}

// TestChaosStalledStageShedsDeadlines pins the deadline-propagation
// contract under a stalled scoring stage: with a 100ms injected stall at
// the score point and 25ms request budgets, every caller gets 504, every
// record is shed at the deadline check before encode/score work, and
// nothing is ever scored.
func TestChaosStalledStageShedsDeadlines(t *testing.T) {
	const clients = 4
	dep := testDeployment(t, 128)
	inj := chaos.New(1, chaos.Fault{Point: chaos.PointScore, P: 1, Delay: 100 * time.Millisecond})
	s := New(dep, Config{
		RequestTimeout: 25 * time.Millisecond,
		Chaos:          inj,
	})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	d := synth.PimaM(7)
	var wg sync.WaitGroup
	statuses := make(chan int, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/score", scoreRequest{Features: floats(d.X[i]...)})
			statuses <- resp.StatusCode
		}(i)
	}
	wg.Wait()
	close(statuses)
	for code := range statuses {
		if code != http.StatusGatewayTimeout {
			t.Errorf("status %d under a stalled stage, want 504", code)
		}
	}

	// Each handler counts its shed before answering 504, so the
	// accounting has landed once every client has its answer.
	m := s.Metrics()
	if got := m.ShedCount(ShedDeadline); got != clients {
		t.Errorf("deadline shed count %d, want %d", got, clients)
	}
	if scored := m.recordsScored.Load(); scored != 0 {
		t.Errorf("%d records scored despite every deadline expiring in the stall", scored)
	}
	if inj.Fired(chaos.PointScore) == 0 {
		t.Error("score fault never fired")
	}
}

// TestShedBatchLeavesDriftUnobserved stalls the score stage past the
// request budget on both routes: a 504 single record and a 504
// three-record batch are scored by neither route, so neither may feed
// the input-drift histograms.
func TestShedBatchLeavesDriftUnobserved(t *testing.T) {
	dep := testDeployment(t, 128)
	inj := chaos.New(1, chaos.Fault{Point: chaos.PointScore, P: 1, Delay: 100 * time.Millisecond})
	s := New(dep, Config{RequestTimeout: 25 * time.Millisecond, Chaos: inj})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	d := synth.PimaM(7)
	for _, route := range []struct {
		path string
		body any
	}{
		{"/v1/score", scoreRequest{Features: floats(d.X[0]...)}},
		{"/v1/score/batch", batchScoreRequest{Records: [][]*float64{floats(d.X[1]...), floats(d.X[2]...), floats(d.X[3]...)}}},
	} {
		if resp, body := postJSON(t, ts.Client(), ts.URL+route.path, route.body); resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("%s: status %d under a stalled stage, want 504: %s", route.path, resp.StatusCode, body)
		}
		if rows := s.active.Load().drift.monitor.Rows(); rows != 0 {
			t.Errorf("%s: a shed request left %d rows observed, want 0", route.path, rows)
		}
	}
	if scored := s.Metrics().recordsScored.Load(); scored != 0 {
		t.Errorf("%d records scored past their deadline", scored)
	}
}

// TestChaosLoadFailureKeepsServing pins the reload failure mode: an
// artifact that fails to read mid-swap (here truncated on disk after
// boot) must leave the old model serving, bit-identical, with no model
// churn.
func TestChaosLoadFailureKeepsServing(t *testing.T) {
	d := synth.PimaM(7)
	dep, err := core.BuildDeployment(core.SpecsFor(d.Features), d.X, d.Y, core.Options{Dim: 128, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.bin")
	if err := dep.Save(path); err != nil {
		t.Fatal(err)
	}

	s := New(dep, Config{
		ModelName: "boot",
		ModelPath: path,
	})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// The artifact behind the active model is cut in half, as a torn
	// copy or a full disk would leave it.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	// SIGHUP path: ReloadModel re-reads the artifact, the read fails,
	// the swap must not happen.
	if _, err := s.ReloadModel(); err == nil {
		t.Fatal("ReloadModel succeeded on a truncated artifact")
	}
	// Admin path: same artifact, same failure, 422 to the caller.
	resp, body := postJSON(t, ts.Client(), ts.URL+"/admin/models/load", loadModelRequest{Path: path})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("admin load of a truncated artifact: %d %s, want 422", resp.StatusCode, body)
	}

	if v := s.active.Load().info.Version; v != 1 {
		t.Fatalf("active version %d after failed loads, want 1 (old model keeps serving)", v)
	}
	if swaps := s.swaps.Load(); swaps != 0 {
		t.Fatalf("%d swaps recorded after failed loads", swaps)
	}

	// The surviving model still scores, bit-identical to direct scoring.
	for i := 0; i < 4; i++ {
		resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/score", scoreRequest{Features: floats(d.X[i]...)})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("score after failed reload: %d %s", resp.StatusCode, body)
		}
		var sr scoreResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatal(err)
		}
		if want := dep.Score(d.X[i]); sr.Score != want {
			t.Errorf("row %d: score %v after failed reload, want %v", i, sr.Score, want)
		}
		if sr.ModelVersion != 1 {
			t.Errorf("row %d scored by version %d, want the surviving version 1", i, sr.ModelVersion)
		}
	}
}

var shadowDroppedSample = regexp.MustCompile(`(?m)^hdfe_shadow_dropped_batches_total (\d+)$`)

// TestChaosSlowShadowDropsNotBlocks pins the lossy-canary contract: a
// stalled shadow worker backs up its bounded queue, further submissions
// drop (counted), and the hot path stays untouched — every live request
// answers 200 with the active model's exact score.
func TestChaosSlowShadowDropsNotBlocks(t *testing.T) {
	const requests = 16
	d := synth.PimaM(7)
	dep := testDeployment(t, 128)
	cand, err := core.BuildDeployment(core.SpecsFor(d.Features), d.X, d.Y, core.Options{Dim: 128, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}

	inj := chaos.New(1, chaos.Fault{Point: chaos.PointShadow, P: 1, Delay: 50 * time.Millisecond})
	s := New(dep, Config{ShadowQueue: 1, Chaos: inj})
	defer s.Close()
	if _, err := s.AdoptShadow(cand, "slow-canary"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < requests; i++ {
		row := d.X[i%len(d.X)]
		resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/score", scoreRequest{Features: floats(row...)})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: %d %s (shadow pressure leaked into the hot path)", i, resp.StatusCode, body)
		}
		var sr scoreResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatal(err)
		}
		if want := dep.Score(row); sr.Score != want {
			t.Errorf("request %d: score %v under shadow pressure, want %v", i, sr.Score, want)
		}
	}

	if dropped := s.shadow.q.Dropped(); dropped == 0 {
		t.Error("no shadow batches dropped despite a 50ms stall behind a 1-batch queue")
	}
	if scored := s.Metrics().recordsScored.Load(); scored != requests {
		t.Errorf("%d records scored, want %d (hot path must not shed)", scored, requests)
	}

	// The drop counter is a first-class metric: /metrics must report it.
	body, _ := scrape(t, ts)
	match := shadowDroppedSample.FindStringSubmatch(body)
	if match == nil {
		t.Fatal("hdfe_shadow_dropped_batches_total missing from /metrics")
	}
	if n, _ := strconv.Atoi(match[1]); n < 1 {
		t.Errorf("hdfe_shadow_dropped_batches_total = %d, want >= 1", n)
	}
}

// TestShadowSubmitAfterCloseCountsDrop pins the closing edge of the
// shadow ledger (records compared + batches dropped = records scored): a
// batch a handler submits after the shadow worker has closed is counted
// in hdfe_shadow_dropped_batches_total, not lost silently.
func TestShadowSubmitAfterCloseCountsDrop(t *testing.T) {
	d := synth.PimaM(7)
	cand, err := core.BuildDeployment(core.SpecsFor(d.Features), d.X, d.Y, core.Options{Dim: 128, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	s := New(testDeployment(t, 128), Config{})
	if _, err := s.AdoptShadow(cand, "canary"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	s.Close()
	s.shadow.submit(d.X[:1], []float64{0.5}, obs.TraceContext{})

	body, _ := scrape(t, ts)
	match := shadowDroppedSample.FindStringSubmatch(body)
	if match == nil || match[1] != "1" {
		t.Fatalf("hdfe_shadow_dropped_batches_total after one submit past close: %v, want 1", match)
	}
}

// TestDeadlineHeaderTightensBudget pins the client-deadline contract on
// both scoring routes: a header budget smaller than the server timeout
// is honoured (the request times out at the header's deadline, counted
// as one deadline shed and never scored), and a malformed header is a
// 400.
func TestDeadlineHeaderTightensBudget(t *testing.T) {
	dep := testDeployment(t, 128)
	inj := chaos.New(1, chaos.Fault{Point: chaos.PointScore, P: 1, Delay: 80 * time.Millisecond})
	s := New(dep, Config{RequestTimeout: 5 * time.Second, Chaos: inj})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	row := floats(synth.PimaM(7).X[0]...)
	for _, route := range []struct {
		path string
		body any
	}{
		{"/v1/score", scoreRequest{Features: row}},
		{"/v1/score/batch", batchScoreRequest{Records: [][]*float64{row, row}}},
	} {
		buf, err := json.Marshal(route.body)
		if err != nil {
			t.Fatal(err)
		}
		post := func(deadline string) *http.Response {
			req, err := http.NewRequest(http.MethodPost, ts.URL+route.path, bytes.NewReader(buf))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", "application/json")
			if deadline != "" {
				req.Header.Set(DeadlineHeader, deadline)
			}
			resp, err := ts.Client().Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			return resp
		}

		// 20ms client budget against an 80ms stall: the header, not the 5s
		// server timeout, must time the request out.
		shed := s.Metrics().ShedCount(ShedDeadline)
		start := time.Now()
		if resp := post("20"); resp.StatusCode != http.StatusGatewayTimeout {
			t.Errorf("%s: status %d with a 20ms client deadline under an 80ms stall, want 504", route.path, resp.StatusCode)
		}
		if took := time.Since(start); took > 2*time.Second {
			t.Errorf("%s: 504 took %v — the server timeout, not the client deadline, was applied", route.path, took)
		}
		if got := s.Metrics().ShedCount(ShedDeadline) - shed; got != 1 {
			t.Errorf("%s: %d deadline sheds counted for one late request, want 1", route.path, got)
		}

		for _, bad := range []string{"0", "-5", "soon", "1.5"} {
			if resp := post(bad); resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s: deadline header %q: status %d, want 400", route.path, bad, resp.StatusCode)
			}
		}
	}
	if scored := s.Metrics().recordsScored.Load(); scored != 0 {
		t.Errorf("%d records scored past their deadline", scored)
	}
}
