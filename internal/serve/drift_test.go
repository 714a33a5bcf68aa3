package serve

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"hdfe/internal/drift"
	"hdfe/internal/synth"
)

// driftServer builds a test server plus its httptest harness, returning
// the log buffer so tests can assert on slog warnings.
func driftServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *bytes.Buffer) {
	t.Helper()
	var logBuf bytes.Buffer
	cfg.Logger = slog.New(slog.NewJSONHandler(&logBuf, nil))
	s := New(testDeployment(t, 256), cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts, &logBuf
}

func getDriftReport(t *testing.T, ts *httptest.Server) driftReport {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/debug/drift")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/drift status %d", resp.StatusCode)
	}
	if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
		t.Errorf("Cache-Control %q, want no-store", cc)
	}
	var rep driftReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestDriftReportCalmTraffic drives in-distribution rows and checks the
// report stays quiet: low PSI everywhere, no clamping, no warnings.
func TestDriftReportCalmTraffic(t *testing.T) {
	_, ts, logBuf := driftServer(t, Config{})
	d := synth.PimaM(7)
	recs := make([][]*float64, len(d.X))
	for i, row := range d.X {
		recs[i] = floats(row...)
	}
	resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/score/batch", batchScoreRequest{Records: recs})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}

	rep := getDriftReport(t, ts)
	if !rep.InputDriftEnabled {
		t.Fatal("input drift disabled despite a v2 deployment")
	}
	if rep.RowsObserved != uint64(len(d.X)) {
		t.Fatalf("rows observed %d, want %d", rep.RowsObserved, len(d.X))
	}
	if len(rep.Features) != 8 {
		t.Fatalf("%d features in report", len(rep.Features))
	}
	// The live traffic IS the training distribution: PSI must be tiny
	// and nothing may fall outside the fitted ranges.
	for _, f := range rep.Features {
		if f.PSI >= 0.1 {
			t.Errorf("feature %s PSI %v on training-identical traffic", f.Name, f.PSI)
		}
		if f.Below != 0 || f.Above != 0 {
			t.Errorf("feature %s clamped %d/%d on training-identical traffic", f.Name, f.Below, f.Above)
		}
	}
	if rep.Prediction.Count != len(d.X) {
		t.Errorf("prediction window count %d, want %d", rep.Prediction.Count, len(d.X))
	}
	if strings.Contains(logBuf.String(), "input drift detected") {
		t.Error("drift warning fired on calm traffic")
	}
}

// TestDriftReportShiftedCohort shifts one feature far outside its fitted
// range and checks the full detection chain: PSI over threshold in the
// report, elevated clamp counters, and an edge-triggered slog warning
// that does not repeat on the next scrape.
func TestDriftReportShiftedCohort(t *testing.T) {
	_, ts, logBuf := driftServer(t, Config{})
	d := synth.PimaM(7)
	const glucose = 1
	recs := make([][]*float64, len(d.X))
	for i, row := range d.X {
		shifted := append([]float64(nil), row...)
		shifted[glucose] += 1000 // far above any fitted glucose
		recs[i] = floats(shifted...)
	}
	resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/score/batch", batchScoreRequest{Records: recs})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}

	rep := getDriftReport(t, ts)
	g := rep.Features[glucose]
	if g.Name != "Glucose" {
		t.Fatalf("feature %d is %q", glucose, g.Name)
	}
	if g.PSI < 0.25 {
		t.Errorf("glucose PSI %v after a wholesale shift, want >= 0.25", g.PSI)
	}
	if g.Above != uint64(len(d.X)) {
		t.Errorf("glucose above-range count %d, want %d", g.Above, len(d.X))
	}
	if g.ClampRatio != 1 {
		t.Errorf("glucose clamp ratio %v, want 1", g.ClampRatio)
	}
	logs := logBuf.String()
	if n := strings.Count(logs, "input drift detected"); n != 1 {
		t.Fatalf("drift warning fired %d times, want 1 (edge-triggered)", n)
	}
	// A second scrape must not re-fire the latched warning.
	getDriftReport(t, ts)
	if n := strings.Count(logBuf.String(), "input drift detected"); n != 1 {
		t.Errorf("drift warning re-fired on second scrape")
	}
	if !strings.Contains(logs, "out-of-range clamping elevated") {
		t.Error("clamp warning missing despite 100% out-of-range traffic")
	}
}

// TestFeedbackJoin walks the delayed-label loop over HTTP: score, then
// label via /v1/feedback, and check the join results and the quality
// block of the drift report.
func TestFeedbackJoin(t *testing.T) {
	_, ts, _ := driftServer(t, Config{})
	d := synth.PimaM(7)

	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/score", scoreRequest{Features: floats(d.X[0]...)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("score status %d: %s", resp.StatusCode, body)
	}
	var sr scoreResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.RequestID == "" {
		t.Fatal("score response carries no request_id")
	}

	one := 1
	// Inline form: one label.
	resp, body = postJSON(t, ts.Client(), ts.URL+"/v1/feedback",
		feedbackRequest{RequestID: sr.RequestID, Label: &one})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("feedback status %d: %s", resp.StatusCode, body)
	}
	var fr feedbackResponse
	if err := json.Unmarshal(body, &fr); err != nil {
		t.Fatal(err)
	}
	if fr.Matched != 1 || fr.Results[0].Status != "matched" {
		t.Fatalf("feedback response %+v", fr)
	}

	// Items form: a duplicate of the same ID plus an unknown ID.
	resp, body = postJSON(t, ts.Client(), ts.URL+"/v1/feedback", feedbackRequest{Items: []feedbackItem{
		{RequestID: sr.RequestID, Label: &one},
		{RequestID: "no-such-request", Label: &one},
	}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch feedback status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &fr); err != nil {
		t.Fatal(err)
	}
	if fr.Duplicate != 1 || fr.Unknown != 1 {
		t.Fatalf("batch feedback response %+v", fr)
	}

	rep := getDriftReport(t, ts)
	q := rep.Quality
	if q.Matched != 1 || q.Unknown != 1 || q.Duplicate != 1 {
		t.Fatalf("quality join counters %+v", q)
	}
	if mass := q.Cumulative.TP + q.Cumulative.TN + q.Cumulative.FP + q.Cumulative.FN; mass != 1 {
		t.Fatalf("confusion mass %d, want 1", mass)
	}
	if q.Canary != drift.CanaryPending {
		t.Errorf("canary %q with one label, want pending", q.Canary)
	}
}

// TestFeedbackValidation pins the 400 paths of /v1/feedback.
func TestFeedbackValidation(t *testing.T) {
	_, ts, _ := driftServer(t, Config{})
	one, two := 1, 2
	for name, req := range map[string]feedbackRequest{
		"empty":            {},
		"missing label":    {RequestID: "x"},
		"bad label":        {RequestID: "x", Label: &two},
		"missing id":       {Label: &one},
		"items and inline": {RequestID: "x", Label: &one, Items: []feedbackItem{{RequestID: "y", Label: &one}}},
		"bad item label":   {Items: []feedbackItem{{RequestID: "y", Label: &two}}},
	} {
		resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/feedback", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", name, resp.StatusCode, body)
		}
	}
}

// TestPromDriftSeries checks the drift families land in /metrics with
// live values.
func TestPromDriftSeries(t *testing.T) {
	_, ts, _ := driftServer(t, Config{})
	d := synth.PimaM(7)
	recs := make([][]*float64, 32)
	for i := range recs {
		recs[i] = floats(d.X[i]...)
	}
	postJSON(t, ts.Client(), ts.URL+"/v1/score/batch", batchScoreRequest{Records: recs})

	body, _ := scrape(t, ts)
	for _, want := range []string{
		`hdfe_drift_rows_observed_total{model_version="1"} 32`,
		`hdfe_drift_psi{feature="Glucose",model_version="1"}`,
		`hdfe_drift_clamp_ratio{feature="BMI",model_version="1"}`,
		`hdfe_drift_out_of_range_total{feature="Age",side="above",model_version="1"} 0`,
		`hdfe_quality_baseline_accuracy{model_version="1"} 0.`,
		`hdfe_quality_canary_healthy{model_version="1"} 1`,
		`hdfe_quality_labels_total{model_version="1"} 0`,
		`hdfe_quality_accuracy{model_version="1"} NaN`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestBatchRequestIDsAlign pins the batch response contract: one
// feedback handle per record, joinable immediately.
func TestBatchRequestIDsAlign(t *testing.T) {
	_, ts, _ := driftServer(t, Config{})
	d := synth.PimaM(7)
	recs := [][]*float64{floats(d.X[0]...), floats(d.X[1]...), floats(d.X[2]...)}
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/score/batch", batchScoreRequest{Records: recs})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	var br batchScoreResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.RequestIDs) != 3 {
		t.Fatalf("%d request IDs for 3 records", len(br.RequestIDs))
	}
	zero := 0
	items := make([]feedbackItem, len(br.RequestIDs))
	for i, id := range br.RequestIDs {
		items[i] = feedbackItem{RequestID: id, Label: &zero}
	}
	resp, body = postJSON(t, ts.Client(), ts.URL+"/v1/feedback", feedbackRequest{Items: items})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("feedback status %d: %s", resp.StatusCode, body)
	}
	var fr feedbackResponse
	if err := json.Unmarshal(body, &fr); err != nil {
		t.Fatal(err)
	}
	if fr.Matched != 3 {
		t.Fatalf("matched %d of 3 batch request IDs: %+v", fr.Matched, fr)
	}
}

// TestFeedbackCanonicalRequestIDs pins the request_id grammar of
// /v1/feedback: the IDs both scoring routes hand out join their own
// predictions, and every other spelling of them reports unknown.
func TestFeedbackCanonicalRequestIDs(t *testing.T) {
	_, ts, _ := driftServer(t, Config{})
	d := synth.PimaM(7)
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/score", scoreRequest{Features: floats(d.X[0]...)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("score status %d: %s", resp.StatusCode, body)
	}
	var sr scoreResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	recs := [][]*float64{floats(d.X[1]...), floats(d.X[2]...)}
	resp, body = postJSON(t, ts.Client(), ts.URL+"/v1/score/batch", batchScoreRequest{Records: recs})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, body)
	}
	if ct, cl := resp.Header.Get("Content-Type"), resp.Header.Get("Content-Length"); ct != "application/json" || cl != strconv.Itoa(len(body)) {
		t.Errorf("batch response Content-Type %q, Content-Length %q for %d bytes", ct, cl, len(body))
	}
	var br batchScoreResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	single, batch := sr.RequestID, strings.TrimSuffix(br.RequestIDs[0], "-0")
	if br.RequestIDs[0] != batch+"-0" || br.RequestIDs[1] != batch+"-1" {
		t.Fatalf("batch request IDs %q", br.RequestIDs)
	}
	noncanonical := []string{
		"0" + single, "+" + single, single + "-", single + "-0", batch,
		batch + "-01", batch + "-+1", batch + "-4096", batch + "-1-0", " " + single, single + " ",
		"18446744073709551616", "x",
	}
	zero := 0
	var items []feedbackItem
	for _, id := range noncanonical {
		items = append(items, feedbackItem{RequestID: id, Label: &zero})
	}
	for _, id := range []string{single, br.RequestIDs[0], br.RequestIDs[1]} {
		items = append(items, feedbackItem{RequestID: id, Label: &zero})
	}
	resp, body = postJSON(t, ts.Client(), ts.URL+"/v1/feedback", feedbackRequest{Items: items})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("feedback status %d: %s", resp.StatusCode, body)
	}
	var fr feedbackResponse
	if err := json.Unmarshal(body, &fr); err != nil {
		t.Fatal(err)
	}
	for i, res := range fr.Results {
		want := "unknown"
		if i >= len(noncanonical) {
			want = "matched"
		}
		if res.Status != want || res.RequestID != items[i].RequestID {
			t.Errorf("request_id %q: %+v, want %s", items[i].RequestID, res, want)
		}
	}
	if fr.Unknown != len(noncanonical) || fr.Matched != 3 {
		t.Errorf("feedback response %+v", fr)
	}
}

// TestRequestKey pins the request_id to quality key mapping at its
// edges: the largest sequence that fits, the last batch index, and
// distinct keys for "<seq>" and "<seq>-0".
func TestRequestKey(t *testing.T) {
	for _, seq := range []uint64{1, 7, 12345, 1<<(64-keyShift) - 1} {
		if got := requestKey(requestID(seq)); got != scoreKey(seq) {
			t.Errorf("requestKey(%q) = %#x, want %#x", requestID(seq), got, scoreKey(seq))
		}
		for _, i := range []int{0, 1, maxBatchRecords - 1} {
			id := batchRequestID(seq, i)
			if got, want := requestKey(id), batchKey(seq)+uint64(i); got != want {
				t.Errorf("requestKey(%q) = %#x, want %#x", id, got, want)
			}
		}
		if scoreKey(seq) == batchKey(seq) || scoreKey(seq) == unmintedKey || batchKey(seq) == unmintedKey {
			t.Errorf("seq %d: keys collide", seq)
		}
	}
	if got := requestKey(requestID(1 << (64 - keyShift))); got != unmintedKey {
		t.Errorf("a sequence past the key space maps to %#x, want unmintedKey", got)
	}
}

// TestAppendBatchResponseMatchesEncoder is the differential check of the
// batch body writer: for random responses, including tiny, subnormal and
// huge scores and warnings that need escaping, appendBatchResponse must
// write exactly what json.NewEncoder writes for batchScoreResponse.
func TestAppendBatchResponseMatchesEncoder(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	texts := []string{"glucose clamped", `<script>&"quoted"\`, "ümlaut ✓", "tab\tnew\nline", "\u2028\u2029", "bad \xff utf-8", ""}
	score := func() float64 {
		switch r.Intn(9) {
		case 0:
			return float64(r.Intn(3)) / 2 // 0, 0.5, 1
		case 1:
			return r.Float64() * 1e-6 // 'e' form, e-07 and below
		case 2:
			return math.Float64frombits(r.Uint64() >> 12) // subnormal
		case 3:
			return math.Ldexp(r.Float64(), r.Intn(140)-20) // up to and past 1e21
		case 4:
			return -r.Float64()
		case 5:
			return math.Copysign(0, -1)
		default:
			return r.Float64()
		}
	}
	var b []byte
	for n := 0; n < 20000; n++ {
		k := 1 + r.Intn(20)
		seq := r.Uint64() >> r.Intn(64)
		scores, preds, ids := make([]float64, k), make([]int, k), make([]string, k)
		for i := range scores {
			scores[i], preds[i], ids[i] = score(), r.Intn(2), batchRequestID(seq, i)
		}
		var warnings []recordWarnings
		for i := 0; i < k; i++ {
			if r.Intn(8) == 0 {
				ws := make([]string, 1+r.Intn(2))
				for j := range ws {
					ws[j] = texts[r.Intn(len(texts))]
				}
				warnings = append(warnings, recordWarnings{Index: i, Warnings: ws})
			}
		}
		version := r.Uint64() >> r.Intn(64)
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(batchScoreResponse{
			RequestIDs: ids, Scores: scores, Predictions: preds, ModelVersion: version, Warnings: warnings,
		}); err != nil {
			t.Fatal(err)
		}
		b = appendBatchResponse(b[:0], seq, scores, preds, version, warnings)
		if !bytes.Equal(b, want.Bytes()) {
			t.Fatalf("response %d differs:\n got %s\nwant %s", n, b, want.Bytes())
		}
	}
}

// TestDriftDisabledWithoutReference pins backward compatibility at the
// serve layer: a deployment with no drift reference (a v1 model file)
// serves normally with input drift off and no input families in
// /metrics, while prediction and quality tracking still run.
func TestDriftDisabledWithoutReference(t *testing.T) {
	dep := testDeployment(t, 256)
	dep.Ref = nil
	s := New(dep, Config{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	d := synth.PimaM(7)
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/score", scoreRequest{Features: floats(d.X[0]...)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("score status %d: %s", resp.StatusCode, body)
	}

	rep := getDriftReport(t, ts)
	if rep.InputDriftEnabled || len(rep.Features) != 0 {
		t.Fatalf("input drift active without a reference: %+v", rep)
	}
	if rep.Prediction.Count != 1 {
		t.Errorf("prediction window count %d, want 1", rep.Prediction.Count)
	}
	if rep.Quality.Canary != drift.CanaryDisabled {
		t.Errorf("canary %q without a baseline, want disabled", rep.Quality.Canary)
	}
	metrics, _ := scrape(t, ts)
	if strings.Contains(metrics, "hdfe_drift_psi") {
		t.Error("input drift families exposed without a reference")
	}
	if !strings.Contains(metrics, "hdfe_drift_score_margin_mean") {
		t.Error("prediction drift families missing without a reference")
	}
}
