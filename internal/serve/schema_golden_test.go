package serve

import (
	"encoding/json"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"hdfe/internal/core"
	"hdfe/internal/obs"
	"hdfe/internal/synth"
)

// -update regenerates the committed schema goldens from the live
// handlers: go test ./internal/serve -run Schema -update
var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden schema files")

// fieldPaths flattens a decoded JSON document into its set of field
// paths: objects contribute "prefix.key" per key, arrays contribute
// "prefix[]" and recurse into their first element. Values are ignored —
// the schema is the shape, not the data — so the goldens stay stable
// across runs while still tripping on any added, renamed, or dropped
// field.
func fieldPaths(v any, prefix string, out map[string]bool) {
	switch x := v.(type) {
	case map[string]any:
		for k, child := range x {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			out[p] = true
			fieldPaths(child, p, out)
		}
	case []any:
		p := prefix + "[]"
		out[p] = true
		if len(x) > 0 {
			fieldPaths(x[0], p, out)
		}
	}
}

// checkSchemaGolden compares a response body's field paths against the
// committed golden, reporting added and removed fields by name. These
// endpoints are scraped by dashboards and release tooling: renaming or
// dropping a field is a breaking change that must be a conscious commit
// (rerun with -update), never a silent drive-by.
func checkSchemaGolden(t *testing.T, body []byte, goldenFile string) {
	t.Helper()
	var doc any
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("%s: %v", goldenFile, err)
	}
	paths := make(map[string]bool)
	fieldPaths(doc, "", paths)
	got := make([]string, 0, len(paths))
	for p := range paths {
		got = append(got, p)
	}
	sort.Strings(got)

	path := filepath.Join("testdata", goldenFile)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate with: go test ./internal/serve -run Schema -update)", err)
	}
	want := strings.Fields(string(raw))
	wantSet := make(map[string]bool, len(want))
	for _, p := range want {
		wantSet[p] = true
	}
	var added, removed []string
	for _, p := range got {
		if !wantSet[p] {
			added = append(added, p)
		}
	}
	for _, p := range want {
		if !paths[p] {
			removed = append(removed, p)
		}
	}
	if len(added)+len(removed) > 0 {
		t.Errorf("%s schema changed:\n  added:   %v\n  removed: %v\n(intentional? rerun with -update and commit the golden)",
			goldenFile, added, removed)
	}
}

// TestResponseSchemaGoldens pins the JSON shape of the two richest
// read-side endpoints, with every optional block populated: a scored
// record and a joined feedback label fill the drift/quality state, and
// an installed shadow makes the omitempty shadow sections appear.
func TestResponseSchemaGoldens(t *testing.T) {
	d := synth.PimaM(7)
	dep := testDeployment(t, 128)
	cand, err := core.BuildDeployment(core.SpecsFor(d.Features), d.X, d.Y, core.Options{Dim: 128, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	s := New(dep, Config{ModelName: "golden"})
	defer s.Close()
	if _, err := s.AdoptShadow(cand, "golden-shadow"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Score, then label the score, so the quality block carries real
	// numbers (NaN quality fields marshal as null either way — the schema
	// records field presence, not value type).
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/score", scoreRequest{Features: floats(d.X[0]...)})
	if resp.StatusCode != 200 {
		t.Fatalf("score: %d %s", resp.StatusCode, body)
	}
	var sr scoreResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	label := sr.Prediction
	resp, body = postJSON(t, ts.Client(), ts.URL+"/v1/feedback",
		feedbackRequest{RequestID: sr.RequestID, Label: &label})
	if resp.StatusCode != 200 {
		t.Fatalf("feedback: %d %s", resp.StatusCode, body)
	}

	// File one fully attributed shed trace straight into the rings so the
	// omitempty /debug/traces fields (batch_size, model_version,
	// shed_reason) are all present in the golden: recent[0] is the newest
	// trace, and fieldPaths only recurses into the first array element.
	at := s.tracer.StartWith("score", obs.TraceContext{})
	at.SetBatch(1)
	at.SetModel(1)
	at.SetShed(ShedQueueFull.String())
	at.Finish(429)

	for _, tc := range []struct {
		route  string
		golden string
	}{
		{"/debug/drift", "drift_schema.golden"},
		{"/v1/models", "models_schema.golden"},
		{"/debug/traces", "traces_schema.golden"},
		{"/debug/slo", "slo_schema.golden"},
	} {
		res, err := ts.Client().Get(ts.URL + tc.route)
		if err != nil {
			t.Fatal(err)
		}
		var raw json.RawMessage
		if err := json.NewDecoder(res.Body).Decode(&raw); err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		checkSchemaGolden(t, raw, tc.golden)
	}
}
