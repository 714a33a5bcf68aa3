package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"hdfe/internal/core"
	"hdfe/internal/synth"
)

// addrJSONRe pulls the bound address out of the JSON "serving" log line.
var addrJSONRe = regexp.MustCompile(`"addr":"([^"]+:\d+)"`)

// TestDriftDetectionEndToEnd drives the whole model-observability loop
// through a real server: write a model artifact, serve it, send a
// cohort whose glucose shifted +2σ, and assert the shift is visible in
// /debug/drift (PSI over threshold) and in the structured log. Then
// close the loop with delayed labels through /v1/feedback and check the
// rolling accuracy agrees with offline scoring of the same rows.
func TestDriftDetectionEndToEnd(t *testing.T) {
	model := filepath.Join(t.TempDir(), "dep.bin")
	var out, errOut bytes.Buffer
	if err := run(context.Background(), []string{"-write-demo", model, "-dim", "512", "-seed", "42"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stdout := &syncBuffer{}
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-model", model, "-addr", "127.0.0.1:0",
			"-log-format", "json"}, stdout, &errOut)
	}()
	jsonAddrRe := addrJSONRe
	var addr string
	deadline := time.Now().Add(15 * time.Second)
	for addr == "" {
		if m := jsonAddrRe.FindStringSubmatch(stdout.String()); m != nil {
			addr = m[1]
		} else if time.Now().After(deadline) {
			t.Fatalf("server never reported its address; stdout %q", stdout.String())
		} else {
			time.Sleep(5 * time.Millisecond)
		}
	}

	// Build the shifted cohort: the training data with glucose moved up
	// by two training standard deviations.
	d := synth.PimaM(42)
	const glucoseCol = 1
	var sum, sumSq float64
	for _, row := range d.X {
		sum += row[glucoseCol]
		sumSq += row[glucoseCol] * row[glucoseCol]
	}
	n := float64(len(d.X))
	mean := sum / n
	sigma := math.Sqrt(sumSq/n - mean*mean)
	if sigma <= 0 {
		t.Fatalf("degenerate glucose sigma %v", sigma)
	}
	shifted := make([][]float64, len(d.X))
	for i, row := range d.X {
		r := append([]float64(nil), row...)
		r[glucoseCol] += 2 * sigma
		shifted[i] = r
	}

	body, err := json.Marshal(map[string]any{"records": shifted})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post("http://"+addr+"/v1/score/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var batch struct {
		RequestIDs  []string  `json:"request_ids"`
		Scores      []float64 `json:"scores"`
		Predictions []int     `json:"predictions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&batch); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	if len(batch.RequestIDs) != len(d.X) || len(batch.Predictions) != len(d.X) {
		t.Fatalf("batch response sizes ids=%d preds=%d, want %d",
			len(batch.RequestIDs), len(batch.Predictions), len(d.X))
	}

	rep := fetchDriftReport(t, addr)
	var glucose *featureDriftView
	for i := range rep.Features {
		if rep.Features[i].Feature == "Glucose" {
			glucose = &rep.Features[i]
		}
	}
	if glucose == nil {
		t.Fatalf("no Glucose feature in drift report: %+v", rep.Features)
	}
	if glucose.PSI < 0.25 {
		t.Errorf("glucose PSI %v after a +2 sigma shift, want >= 0.25", glucose.PSI)
	}
	// The /debug/drift call above ran the threshold evaluation, so the
	// warning must already be in the structured log.
	if !strings.Contains(stdout.String(), `"msg":"input drift detected"`) {
		t.Errorf("no drift warning in the structured log; stdout %q", stdout.String())
	}

	// Close the delayed-label loop: the true outcomes are the dataset
	// labels, keyed by the request IDs the batch response returned.
	items := make([]map[string]any, len(batch.RequestIDs))
	for i, id := range batch.RequestIDs {
		items[i] = map[string]any{"request_id": id, "label": d.Y[i]}
	}
	body, err = json.Marshal(map[string]any{"items": items})
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post("http://"+addr+"/v1/feedback", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var fb struct {
		Matched int `json:"matched"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&fb); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || fb.Matched != len(d.X) {
		t.Fatalf("feedback status %d matched %d, want %d", resp.StatusCode, fb.Matched, len(d.X))
	}

	// Rolling accuracy must agree with offline scoring of the identical
	// rows through the same model file.
	dep, err := core.LoadDeployment(model)
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i, row := range shifted {
		if (dep.Score(row) >= 0.5) == (d.Y[i] == 1) {
			correct++
		}
	}
	offline := float64(correct) / float64(len(shifted))

	rep = fetchDriftReport(t, addr)
	if rep.Quality.WindowLabels != uint64(len(d.X)) {
		t.Fatalf("window labels %d, want %d (quality window must hold the cohort)",
			rep.Quality.WindowLabels, len(d.X))
	}
	if rep.Quality.RollingAccuracy == nil {
		t.Fatal("rolling accuracy null after labels")
	}
	if diff := math.Abs(*rep.Quality.RollingAccuracy - offline); diff > 0.001 {
		t.Errorf("rolling accuracy %v vs offline %v (diff %v, want <= 0.001)",
			*rep.Quality.RollingAccuracy, offline, diff)
	}
	if rep.Quality.Canary == "" || rep.Quality.Canary == "disabled" {
		t.Errorf("canary %q, want an active verdict", rep.Quality.Canary)
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

// featureDriftView mirrors the /debug/drift per-feature block.
type featureDriftView struct {
	Feature    string  `json:"feature"`
	PSI        float64 `json:"psi"`
	ClampRatio float64 `json:"clamp_ratio"`
	Above      uint64  `json:"above"`
}

// driftReportView mirrors the /debug/drift body (floats that can be
// "no data yet" arrive as null, hence the pointers).
type driftReportView struct {
	InputDriftEnabled bool               `json:"input_drift_enabled"`
	RowsObserved      uint64             `json:"rows_observed"`
	Features          []featureDriftView `json:"features"`
	Quality           struct {
		WindowLabels    uint64   `json:"window_labels"`
		RollingAccuracy *float64 `json:"rolling_accuracy"`
		Canary          string   `json:"canary"`
	} `json:"quality"`
}

func fetchDriftReport(t *testing.T, addr string) driftReportView {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("http://%s/debug/drift", addr))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/drift status %d", resp.StatusCode)
	}
	var rep driftReportView
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	return rep
}
