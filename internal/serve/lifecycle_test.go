package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hdfe/internal/core"
	"hdfe/internal/synth"
)

// altDeployment builds a deployment over the same synthetic cohort and
// feature schema as testDeployment but with a different codebook seed,
// so it is hot-swappable with the boot model yet scores differently.
func altDeployment(t testing.TB, dim int) *core.Deployment {
	t.Helper()
	d := synth.PimaM(7)
	dep, err := core.BuildDeployment(core.SpecsFor(d.Features), d.X, d.Y, core.Options{Dim: dim, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	return dep
}

// saveDeployment writes dep to a fresh temp file and returns the path.
func saveDeployment(t testing.TB, dep *core.Deployment, name string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := dep.Save(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func getModels(t *testing.T, ts *httptest.Server) modelsResponse {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/models: status %d", resp.StatusCode)
	}
	var out modelsResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestModelsEndpoint(t *testing.T) {
	dep := testDeployment(t, 128)
	s := New(dep, Config{ModelName: "boot"})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	out := getModels(t, ts)
	if out.Active.Version != 1 || out.Active.Name != "boot" {
		t.Errorf("active = %+v, want version 1 name boot", out.Active)
	}
	if out.Active.Dim != 128 || out.Active.Features != 8 {
		t.Errorf("active schema %+v, want dim 128, 8 features", out.Active)
	}
	if out.Shadow != nil {
		t.Errorf("shadow = %+v with no shadow installed", out.Shadow)
	}
	if out.Swaps != 0 {
		t.Errorf("swaps = %d at boot", out.Swaps)
	}
	if len(out.Loaded) != 1 {
		t.Errorf("loaded = %+v, want just the boot model", out.Loaded)
	}

	if _, err := s.AdoptShadow(altDeployment(t, 128), "cand"); err != nil {
		t.Fatal(err)
	}
	out = getModels(t, ts)
	if out.Shadow == nil || out.Shadow.Version != 2 || out.Shadow.Name != "cand" {
		t.Errorf("shadow = %+v, want version 2 name cand", out.Shadow)
	}
	if out.Active.Version != 1 {
		t.Errorf("installing a shadow moved active to %+v", out.Active)
	}
	if len(out.Loaded) != 2 {
		t.Errorf("loaded = %+v, want boot + shadow", out.Loaded)
	}
}

// TestAdoptAssignsMonotonicVersions pins model identity: versions count
// up from the boot model's 1, even when adoptions race (an admin load and
// a SIGHUP reload can), each adoption records its name, path, digest,
// schema and load time, and the history lists every adoption in version
// order, published or not.
func TestAdoptAssignsMonotonicVersions(t *testing.T) {
	dep := testDeployment(t, 64)
	s := New(dep, Config{ModelName: "boot"})
	defer s.Close()
	a := s.adopt(dep, "a", "/models/a.bin", "sha-a")
	if a.info.Version != 2 {
		t.Fatalf("first adoption after boot got version %d, want 2", a.info.Version)
	}
	if a.info.Name != "a" || a.info.Path != "/models/a.bin" || a.info.SHA256 != "sha-a" {
		t.Errorf("info %+v", a.info)
	}
	if a.info.Dim != 64 || a.info.Features != 8 {
		t.Errorf("schema info %+v, want dim 64, 8 features", a.info)
	}
	if a.info.LoadedAt.IsZero() {
		t.Error("LoadedAt not stamped")
	}

	const goroutines, each = 4, 5
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				s.adopt(dep, "race", "", "")
			}
		}()
	}
	wg.Wait()
	hist := s.loaded
	if len(hist) != 2+goroutines*each {
		t.Fatalf("history has %d models, want %d", len(hist), 2+goroutines*each)
	}
	for i, info := range hist {
		if info.Version != uint64(i+1) {
			t.Fatalf("history[%d] is version %d, want %d", i, info.Version, i+1)
		}
	}
}

func TestAdminLoadModel(t *testing.T) {
	depA := testDeployment(t, 128)
	depB := altDeployment(t, 128)
	pathB := saveDeployment(t, depB, "b.bin")

	s := New(depA, Config{ModelName: "boot"})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Promote B from its artifact: the version advances, the swap counts,
	// and live scoring flips to B's codebook.
	resp, body := postJSON(t, ts.Client(), ts.URL+"/admin/models/load", loadModelRequest{Path: pathB, Name: "b"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("load: status %d body %s", resp.StatusCode, body)
	}
	var loaded loadModelResponse
	if err := json.Unmarshal(body, &loaded); err != nil {
		t.Fatal(err)
	}
	if loaded.Role != "active" || loaded.Model.Version != 2 || loaded.Model.Name != "b" {
		t.Errorf("load response %+v, want active version 2 name b", loaded)
	}
	if loaded.Model.Path != pathB || len(loaded.Model.SHA256) != 64 {
		t.Errorf("artifact identity %+v, want path %s and a sha256 hex digest", loaded.Model, pathB)
	}

	row := synth.PimaM(7).X[0]
	resp, body = postJSON(t, ts.Client(), ts.URL+"/v1/score", scoreRequest{Features: floats(row...)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("score after swap: status %d body %s", resp.StatusCode, body)
	}
	var scored scoreResponse
	if err := json.Unmarshal(body, &scored); err != nil {
		t.Fatal(err)
	}
	if want := depB.Score(row); scored.Score != want || scored.ModelVersion != 2 {
		t.Errorf("score after swap = %v from version %d, want %v from version 2",
			scored.Score, scored.ModelVersion, want)
	}
	if out := getModels(t, ts); out.Swaps != 1 || out.Active.Version != 2 {
		t.Errorf("registry after swap: %+v", out)
	}

	// The same artifact installed as shadow does not touch active.
	resp, body = postJSON(t, ts.Client(), ts.URL+"/admin/models/load", loadModelRequest{Path: pathB, Shadow: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("shadow load: status %d body %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &loaded); err != nil {
		t.Fatal(err)
	}
	if loaded.Role != "shadow" || loaded.Model.Version != 3 || loaded.Model.Name != pathB {
		t.Errorf("shadow load response %+v, want shadow version 3 named by path", loaded)
	}
	if out := getModels(t, ts); out.Active.Version != 2 || out.Shadow == nil || out.Shadow.Version != 3 {
		t.Errorf("registry after shadow load: %+v", out)
	}

	// Failure modes leave the serving state untouched.
	for _, tc := range []struct {
		name   string
		req    loadModelRequest
		status int
	}{
		{"missing path", loadModelRequest{}, http.StatusBadRequest},
		{"no such file", loadModelRequest{Path: filepath.Join(t.TempDir(), "nope.bin")}, http.StatusUnprocessableEntity},
	} {
		resp, body := postJSON(t, ts.Client(), ts.URL+"/admin/models/load", tc.req)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d body %s, want %d", tc.name, resp.StatusCode, body, tc.status)
		}
	}

	// A schema-incompatible artifact (fewer features) is refused with 422.
	d := synth.PimaM(7)
	narrow := make([][]float64, len(d.X))
	for i, r := range d.X {
		narrow[i] = r[:7]
	}
	depN, err := core.BuildDeployment(core.SpecsFor(d.Features[:7]), narrow, d.Y, core.Options{Dim: 128, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	resp, body = postJSON(t, ts.Client(), ts.URL+"/admin/models/load",
		loadModelRequest{Path: saveDeployment(t, depN, "narrow.bin")})
	if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(string(body), "schema mismatch") {
		t.Errorf("narrow model load: status %d body %s, want 422 schema mismatch", resp.StatusCode, body)
	}
	if out := getModels(t, ts); out.Active.Version != 2 || out.Swaps != 1 {
		t.Errorf("registry changed by failed loads: %+v", out)
	}
}

// TestScoreDuringSwapBitIdentical is the hot-swap correctness test: it
// hammers /v1/score while the active model flips between two codebooks
// and asserts every response is bit-identical to the offline score of
// the model version the response claims — never an error, never a
// blend. Versions promoted here alternate B (even) / A (odd).
func TestScoreDuringSwapBitIdentical(t *testing.T) {
	const (
		workers = 8
		swaps   = 25
	)
	depA := testDeployment(t, 128)
	depB := altDeployment(t, 128)
	row := synth.PimaM(7).X[3]
	wantA, wantB := depA.Score(row), depB.Score(row)
	if wantA == wantB {
		t.Fatalf("test vacuous: both models score %v for the probe row", wantA)
	}

	s := New(depA, Config{ModelName: "a"})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var scored sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		scored.Add(1)
		go func() {
			defer wg.Done()
			first := true
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/score", scoreRequest{Features: floats(row...)})
				if resp.StatusCode != http.StatusOK {
					t.Errorf("score during swap: status %d body %s", resp.StatusCode, body)
					continue
				}
				var out scoreResponse
				if err := json.Unmarshal(body, &out); err != nil {
					t.Error(err)
					continue
				}
				want := wantA
				if out.ModelVersion%2 == 0 {
					want = wantB
				}
				if out.Score != want {
					t.Errorf("version %d scored %v, want bit-identical %v", out.ModelVersion, out.Score, want)
				}
				if first {
					first = false
					scored.Done()
				}
			}
		}()
	}
	scored.Wait() // every worker has traffic in flight before swapping starts
	for i := 0; i < swaps; i++ {
		dep, name := depB, "b"
		if i%2 == 1 {
			dep, name = depA, "a"
		}
		if _, err := s.AdoptAndPromote(dep, name); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()

	if out := getModels(t, ts); out.Swaps != swaps || out.Active.Version != uint64(swaps+1) {
		t.Errorf("models after %d swaps: swaps=%d active=%+v", swaps, out.Swaps, out.Active)
	}
}

// TestShadowScoringComparesModels drives batches through an active
// model with a shadow installed and asserts the asynchronous comparison
// converges to the exact offline disagreement and score-delta numbers,
// and that both /metrics and /debug/drift expose them.
func TestShadowScoringComparesModels(t *testing.T) {
	depA := testDeployment(t, 128)
	depB := altDeployment(t, 128)
	s := New(depA, Config{ModelName: "a"})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if _, err := s.AdoptShadow(depB, "cand"); err != nil {
		t.Fatal(err)
	}

	const rows = 24
	d := synth.PimaM(7)
	recs := make([][]*float64, rows)
	var disagree uint64
	var sumDelta float64
	for i := 0; i < rows; i++ {
		recs[i] = floats(d.X[i]...)
		a, b := depA.Score(d.X[i]), depB.Score(d.X[i])
		if (a >= 0.5) != (b >= 0.5) {
			disagree++
		}
		sumDelta += a - b
		if a < b {
			sumDelta += 2 * (b - a)
		}
	}
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/score/batch", batchScoreRequest{Records: recs})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch score: status %d body %s", resp.StatusCode, body)
	}

	// The shadow worker runs off the hot path; poll its stats until the
	// batch lands.
	sh := s.shadow.slot.Load()
	var snap shadowSnapshot
	deadline := time.Now().Add(5 * time.Second)
	for {
		snap = sh.shadow.snapshot()
		if snap.Records >= rows || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if snap.Records != rows {
		t.Fatalf("shadow records = %d, want %d", snap.Records, rows)
	}
	if snap.Disagreements != disagree {
		t.Errorf("shadow disagreements = %d, want %d", snap.Disagreements, disagree)
	}
	wantRate := float64(disagree) / rows
	if snap.DisagreementRate != wantRate {
		t.Errorf("disagreement rate = %v, want %v", snap.DisagreementRate, wantRate)
	}
	wantDelta := sumDelta / rows
	if diff := snap.MeanAbsDelta - wantDelta; diff > 1e-8 || diff < -1e-8 {
		t.Errorf("mean abs delta = %v, want %v (within 1e-8)", snap.MeanAbsDelta, wantDelta)
	}

	// The comparison is exported on /metrics, labelled with the shadow's
	// version, alongside the drop counter.
	metrics, _ := scrape(t, ts)
	for _, want := range []string{
		`hdfe_shadow_records_total{model_version="2"} 24`,
		`hdfe_shadow_disagreements_total{model_version="2"}`,
		`hdfe_shadow_disagreement_rate{model_version="2"}`,
		`hdfe_shadow_score_delta_mean_abs{model_version="2"}`,
		`hdfe_shadow_dropped_batches_total 0`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// And /debug/drift carries the same numbers in its shadow block.
	rep := getDriftReport(t, ts)
	if rep.Shadow == nil {
		t.Fatal("drift report has no shadow block with a shadow installed")
	}
	if rep.Shadow.ModelVersion != 2 || rep.Shadow.Records != rows || rep.Shadow.Disagreements != disagree {
		t.Errorf("drift shadow block %+v", rep.Shadow)
	}

	// Replacing the shadow resets the comparison: stats live on the
	// model, not the server.
	if _, err := s.AdoptShadow(altDeployment(t, 128), "cand2"); err != nil {
		t.Fatal(err)
	}
	if got := s.shadow.slot.Load().shadow.snapshot().Records; got != 0 {
		t.Errorf("fresh shadow starts with %d records", got)
	}
}

// TestShadowLedgerAcrossReplacement pins the shadow ledger while the
// shadow is replaced under live traffic: every record scored with a
// shadow installed is either compared by some shadow or counted in
// hdfe_shadow_dropped_batches_total (each request is a one-record
// batch), never lost in the hand-off between two shadow models. The
// one-batch queue makes drops likely, so both sides of the sum move.
func TestShadowLedgerAcrossReplacement(t *testing.T) {
	const (
		workers  = 6
		replaces = 40
	)
	depA := testDeployment(t, 128)
	depB := altDeployment(t, 128)
	s := New(depA, Config{ModelName: "a", ShadowQueue: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	// The first shadow goes in before traffic starts, so no record is
	// scored while the slot is empty.
	if _, err := s.AdoptShadow(depB, "shadow"); err != nil {
		t.Fatal(err)
	}
	shadows := []*model{s.shadow.slot.Load()}

	row := floats(synth.PimaM(7).X[3]...)
	var scored atomic.Uint64
	stop := make(chan struct{})
	var wg, started sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		started.Add(1)
		go func() {
			defer wg.Done()
			first := true
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/score", scoreRequest{Features: row})
				if resp.StatusCode != http.StatusOK {
					t.Errorf("score during shadow replacement: status %d body %s", resp.StatusCode, body)
					continue
				}
				scored.Add(1)
				if first {
					first = false
					started.Done()
				}
			}
		}()
	}
	started.Wait() // every worker has traffic in flight before replacing starts
	for i := 0; i < replaces; i++ {
		dep := depA
		if i%2 == 1 {
			dep = depB
		}
		if _, err := s.AdoptShadow(dep, "shadow"); err != nil {
			t.Fatal(err)
		}
		shadows = append(shadows, s.shadow.slot.Load())
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	s.Close() // drains the shadow worker: every queued batch is compared or dropped

	var compared uint64
	for _, m := range shadows {
		compared += m.shadow.snapshot().Records
	}
	dropped := s.shadow.q.Dropped()
	t.Logf("%d scored: %d compared, %d dropped", scored.Load(), compared, dropped)
	if compared+dropped != scored.Load() {
		t.Errorf("shadow ledger: %d compared + %d dropped != %d scored", compared, dropped, scored.Load())
	}
	if n := s.metrics.recordsScored.Load(); n != scored.Load() {
		t.Errorf("records scored counter %d, clients saw %d", n, scored.Load())
	}
}

// TestAdoptAndPromoteSchemaGate pins that in-process promotion runs the
// same schema check as artifact loads.
func TestAdoptAndPromoteSchemaGate(t *testing.T) {
	s := New(testDeployment(t, 128), Config{})
	defer s.Close()

	d := synth.PimaM(7)
	narrow := make([][]float64, len(d.X))
	for i, r := range d.X {
		narrow[i] = r[:7]
	}
	depN, err := core.BuildDeployment(core.SpecsFor(d.Features[:7]), narrow, d.Y, core.Options{Dim: 128, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AdoptAndPromote(depN, "narrow"); err == nil || !strings.Contains(err.Error(), "schema mismatch") {
		t.Errorf("AdoptAndPromote with 7 features: err = %v, want schema mismatch", err)
	}
	if _, err := s.AdoptShadow(depN, "narrow"); err == nil || !strings.Contains(err.Error(), "schema mismatch") {
		t.Errorf("AdoptShadow with 7 features: err = %v, want schema mismatch", err)
	}
}

// TestReloadModel pins the SIGHUP semantics at the Server level: reload
// re-reads the active model's backing file and promotes the fresh copy;
// in-process models have nothing to reload.
func TestReloadModel(t *testing.T) {
	dep := testDeployment(t, 128)
	path := saveDeployment(t, dep, "model.bin")

	s := New(dep, Config{ModelName: "demo"})
	if _, err := s.ReloadModel(); err == nil {
		t.Error("ReloadModel on an in-process model succeeded")
	}
	s.Close()

	loaded, sha, err := core.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s2 := New(loaded, Config{ModelName: "disk", ModelPath: path, ModelSHA256: sha})
	defer s2.Close()
	info, err := s2.ReloadModel()
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 2 || info.Path != path || info.Name != "disk" {
		t.Errorf("reloaded info %+v, want version 2 from %s", info, path)
	}
	if got := s2.swaps.Load(); got != 1 {
		t.Errorf("swaps = %d after reload, want 1", got)
	}
}
