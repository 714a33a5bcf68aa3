package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"hdfe/internal/chaos"
	"hdfe/internal/core"
	"hdfe/internal/obs"
	"hdfe/internal/obs/audit"
	"hdfe/internal/synth"
)

// auditServer builds a server whose boot model is a real on-disk
// artifact (so audit events carry its sha256 and replay can attribute
// them) and whose decisions land in a fresh audit directory. The caller
// owns shutdown: close the httptest server, then the Server (which
// closes the audit log), then inspect the trail.
func auditServer(t *testing.T, cfg Config, acfg audit.Config) (*Server, *httptest.Server, string, string) {
	t.Helper()
	dir := t.TempDir()
	artifact := filepath.Join(dir, "model.bin")
	if err := testDeployment(t, 256).Save(artifact); err != nil {
		t.Fatal(err)
	}
	dep, sha, err := core.ReadFile(artifact)
	if err != nil {
		t.Fatal(err)
	}
	acfg.Dir = filepath.Join(dir, "audit")
	log, err := audit.Open(acfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Audit = log
	cfg.ModelSHA256 = sha
	cfg.ModelPath = artifact
	s := New(dep, cfg)
	ts := httptest.NewServer(s.Handler())
	return s, ts, acfg.Dir, artifact
}

// TestAuditE2E drives every audited seam — single score, client batch,
// explain, feedback, a model hot-swap, and an error — then verifies the
// chain and replays every audited score bit-identically.
func TestAuditE2E(t *testing.T) {
	s, ts, auditDir, artifact := auditServer(t, Config{}, audit.Config{})
	d := synth.PimaM(7)

	// 10 single scores, the last with explain=3.
	wantBits := map[string]uint64{}
	for i := 0; i < 10; i++ {
		url := ts.URL + "/v1/score"
		if i == 9 {
			url += "?explain=3"
		}
		resp, body := postJSON(t, ts.Client(), url, scoreRequest{Features: floats(d.X[i]...)})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("score %d: status %d: %s", i, resp.StatusCode, body)
		}
		var sr scoreResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatal(err)
		}
		wantBits[sr.RequestID] = math.Float64bits(sr.Score)
		if i == 9 && len(sr.Explain) != 3 {
			t.Fatalf("explain=3 returned %d contributions", len(sr.Explain))
		}
	}

	// One client-side batch of 5.
	recs := make([][]*float64, 5)
	for i := range recs {
		recs[i] = floats(d.X[10+i]...)
	}
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/score/batch", batchScoreRequest{Records: recs})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d: %s", resp.StatusCode, body)
	}
	var br batchScoreResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	for i, id := range br.RequestIDs {
		wantBits[id] = math.Float64bits(br.Scores[i])
	}

	// Feedback on the first scored request.
	one := 1
	resp, body = postJSON(t, ts.Client(), ts.URL+"/v1/feedback", feedbackRequest{
		Items: []feedbackItem{{RequestID: firstKey(wantBits), Label: &one}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("feedback: status %d: %s", resp.StatusCode, body)
	}

	// A validation error (wrong arity) must audit as an error outcome.
	resp, _ = postJSON(t, ts.Client(), ts.URL+"/v1/score", scoreRequest{Features: floats(1, 2)})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("short record: status %d, want 400", resp.StatusCode)
	}

	// A model hot-swap (reload of the same artifact) must audit.
	if _, err := s.LoadAndPromote(artifact, "reloaded"); err != nil {
		t.Fatal(err)
	}
	// One score under the new version; same artifact, so the sha — and
	// replay attribution — is unchanged.
	resp, body = postJSON(t, ts.Client(), ts.URL+"/v1/score", scoreRequest{Features: floats(d.X[20]...)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-swap score: status %d", resp.StatusCode)
	}
	var sr scoreResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.ModelVersion != 2 {
		t.Fatalf("post-swap model version %d, want 2", sr.ModelVersion)
	}
	wantBits[sr.RequestID] = math.Float64bits(sr.Score)

	// The trace of every request, to check the audited stage times against.
	traces := map[string]obs.TraceView{}
	recent, _ := s.tracer.TraceViews()
	for _, v := range recent {
		traces[v.TraceID] = v
	}

	ts.Close()
	s.Close() // drains and seals the audit log

	res, err := audit.VerifyDir(auditDir)
	if err != nil {
		t.Fatalf("VerifyDir: %v", err)
	}
	if res.Outcomes["scored"] != len(wantBits) {
		t.Fatalf("%d scored events, want %d (census %v)", res.Outcomes["scored"], len(wantBits), res.Outcomes)
	}
	if res.Outcomes["error"] == 0 || res.Outcomes["ok"] < 2 {
		t.Fatalf("missing error/feedback/swap events: census %v", res.Outcomes)
	}

	// Every audited score must carry the bits the client saw and its
	// request trace's stage times (a batch record an even share of them),
	// the swap must be on record — once: the boot model is published
	// without a swap event — and the explained event must carry its top-3.
	swapEvents, sawExplain := 0, false
	if _, err := audit.Walk(auditDir, func(ev audit.Event) error {
		switch {
		case ev.Route == "model_swap":
			swapEvents++
		case ev.Outcome == audit.OutcomeScored:
			if want, ok := wantBits[ev.RequestID]; !ok || ev.ScoreBits != want {
				t.Errorf("seq %d: audited bits %#x, client saw %#x", ev.Seq, ev.ScoreBits, want)
			}
			tv, ok := traces[ev.TraceID]
			share := func(stage string) int64 { return int64(tv.Stages[stage] / float64(max(ev.Batch, 1))) }
			if !ok || ev.Stages == nil || *ev.Stages != (audit.Stages{
				ValidateUs: share("validate"), EncodeUs: share("encode"), ScoreUs: share("score"),
			}) {
				t.Errorf("seq %d: audited stages %+v, trace %s stages %v (batch %d)", ev.Seq, ev.Stages, ev.TraceID, tv.Stages, ev.Batch)
			}
			if len(ev.Explain) == 3 {
				sawExplain = true
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if swapEvents != 1 || !sawExplain {
		t.Fatalf("%d model_swap events (want 1), sawExplain=%v", swapEvents, sawExplain)
	}

	// Offline replay against the artifact: every attributed score must
	// reproduce bit-identically.
	dep, sha, err := core.ReadFile(artifact)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := audit.Replay(auditDir, dep, sha)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Replayed != len(wantBits) || rr.Matched != rr.Replayed || len(rr.Divergences) != 0 {
		t.Fatalf("replayed %d matched %d diverged %d, want %d/%d/0",
			rr.Replayed, rr.Matched, len(rr.Divergences), len(wantBits), len(wantBits))
	}
}

func firstKey(m map[string]uint64) string {
	for k := range m {
		return k
	}
	return ""
}

// TestAuditShedEvents pins that refused requests join the trail: while
// the server drains every /v1/score answer is a shed, and each shed is
// audited with its reason.
func TestAuditShedEvents(t *testing.T) {
	s, ts, auditDir, _ := auditServer(t, Config{}, audit.Config{})
	d := synth.PimaM(7)
	s.draining.Store(true) // what Close does first; the audit log stays open
	for i := 0; i < 3; i++ {
		resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/score", scoreRequest{Features: floats(d.X[i]...)})
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("draining score: status %d, want 503", resp.StatusCode)
		}
	}
	ts.Close()
	s.Close()
	res, err := audit.VerifyDir(auditDir)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcomes["shed"] != 3 {
		t.Fatalf("%d shed events, want 3 (census %v)", res.Outcomes["shed"], res.Outcomes)
	}
}

// TestExplainValidation pins the ?explain contract: 0/absent adds
// nothing, a bad value is a 400 before any scoring work.
func TestExplainValidation(t *testing.T) {
	_, ts, _ := driftServer(t, Config{})
	d := synth.PimaM(7)

	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/score?explain=0", scoreRequest{Features: floats(d.X[0]...)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explain=0: status %d", resp.StatusCode)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatal(err)
	}
	if _, ok := raw["explain"]; ok {
		t.Fatal("explain=0 still included an explain block")
	}

	for _, q := range []string{"explain=-1", "explain=x", "explain=1.5"} {
		resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/score?"+q, scoreRequest{Features: floats(d.X[0]...)})
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", q, resp.StatusCode)
		}
	}

	// A large k clamps to the feature count, sorted by similarity.
	resp, body = postJSON(t, ts.Client(), ts.URL+"/v1/score?explain=999", scoreRequest{Features: floats(d.X[0]...)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explain=999: status %d", resp.StatusCode)
	}
	var sr scoreResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Explain) != len(d.Features) {
		t.Fatalf("explain=999 returned %d contributions, want %d", len(sr.Explain), len(d.Features))
	}
	for i := 1; i < len(sr.Explain); i++ {
		if sr.Explain[i].Similarity > sr.Explain[i-1].Similarity {
			t.Fatal("explain contributions not sorted by similarity")
		}
	}
}

// TestAuditDebugEndpoint pins the /debug/audit body, enabled and not.
func TestAuditDebugEndpoint(t *testing.T) {
	t.Run("enabled", func(t *testing.T) {
		s, ts, _, _ := auditServer(t, Config{}, audit.Config{})
		defer func() { ts.Close(); s.Close() }()
		d := synth.PimaM(7)
		postJSON(t, ts.Client(), ts.URL+"/v1/score", scoreRequest{Features: floats(d.X[0]...)})
		// The write is async; poll briefly for the worker to land it.
		deadline := time.Now().Add(2 * time.Second)
		for {
			resp, err := ts.Client().Get(ts.URL + "/debug/audit")
			if err != nil {
				t.Fatal(err)
			}
			var dbg auditDebug
			if err := json.NewDecoder(resp.Body).Decode(&dbg); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if dbg.LastSeq >= 1 {
				if !dbg.Enabled || dbg.Dir == "" || dbg.ChainHead == "" ||
					dbg.Events["scored"] != 1 || len(dbg.Recent) == 0 {
					t.Fatalf("debug body %+v", dbg)
				}
				if dbg.Recent[0].Route != "score" || dbg.Recent[0].ScoreBits == 0 {
					t.Fatalf("recent[0] %+v", dbg.Recent[0])
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("audit event never landed: %+v", dbg)
			}
			time.Sleep(5 * time.Millisecond)
		}
	})
	t.Run("disabled", func(t *testing.T) {
		_, ts, _ := driftServer(t, Config{})
		resp, err := ts.Client().Get(ts.URL + "/debug/audit")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var dbg auditDebug
		if err := json.NewDecoder(resp.Body).Decode(&dbg); err != nil {
			t.Fatal(err)
		}
		if dbg.Enabled || dbg.LastSeq != 0 || dbg.Events["scored"] != 0 {
			t.Fatalf("disabled debug body %+v", dbg)
		}
	})
}

// TestAuditChaosRaceE2E is the acceptance e2e: concurrent load with the
// audit chaos point injecting write failures must still produce (a)
// Float64bits-identical scores between the client responses and the
// audit trail, (b) a verifiable unbroken chain over all non-dropped
// events, and (c) a bit-identical offline replay — with drops visible
// only in the dropped counter, never as scoring anomalies.
func TestAuditChaosRaceE2E(t *testing.T) {
	inj := chaos.New(42, chaos.Fault{Point: chaos.PointAudit, P: 0.25, Err: "injected audit disk failure"})
	s, ts, auditDir, artifact := auditServer(t, Config{}, audit.Config{Chaos: inj})
	d := synth.PimaM(7)

	const workers, perWorker = 8, 25
	var mu sync.Mutex
	got := map[string]uint64{} // request_id -> client-visible score bits
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				row := d.X[(w*perWorker+i)%len(d.X)]
				resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/score", scoreRequest{Features: floats(row...)})
				if resp.StatusCode != http.StatusOK {
					t.Errorf("worker %d: status %d: %s", w, resp.StatusCode, body)
					return
				}
				var sr scoreResponse
				if err := json.Unmarshal(body, &sr); err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				got[sr.RequestID] = math.Float64bits(sr.Score)
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	ts.Close()
	s.Close()

	if inj.Fired(chaos.PointAudit) == 0 {
		t.Fatal("audit chaos point never fired")
	}
	if s.audit.Dropped() == 0 {
		t.Fatal("no audit events dropped despite p=0.25 injected failures")
	}

	res, err := audit.VerifyDir(auditDir)
	if err != nil {
		t.Fatalf("VerifyDir under chaos: %v", err)
	}
	total := workers * perWorker
	if written := res.Outcomes["scored"]; written+int(s.audit.Dropped()) < total {
		t.Fatalf("written %d + dropped %d < %d scored requests", written, s.audit.Dropped(), total)
	}
	// (a) every surviving audit event matches the client's bits.
	if _, err := audit.Walk(auditDir, func(ev audit.Event) error {
		if ev.Outcome != audit.OutcomeScored {
			return nil
		}
		want, ok := got[ev.RequestID]
		if !ok {
			t.Errorf("seq %d: audited request %s never answered a client", ev.Seq, ev.RequestID)
			return nil
		}
		if ev.ScoreBits != want {
			t.Errorf("seq %d: audited bits %#x, client saw %#x", ev.Seq, ev.ScoreBits, want)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// (c) offline replay reproduces every audited score bit-identically.
	dep, sha, err := core.ReadFile(artifact)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := audit.Replay(auditDir, dep, sha)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Replayed == 0 || rr.Matched != rr.Replayed || len(rr.Divergences) != 0 {
		t.Fatalf("replay under chaos: replayed %d matched %d diverged %d",
			rr.Replayed, rr.Matched, len(rr.Divergences))
	}
}

// TestAuditHelpersZeroAllocWhenDisabled guards the scoring hot path: a
// server without -audit-dir must pay exactly one nil check per would-be
// event — no event construction, no input copies, no digests.
func TestAuditHelpersZeroAllocWhenDisabled(t *testing.T) {
	s := New(testDeployment(t, 64), Config{})
	defer s.Close()
	m := s.active.Load()
	row := synth.PimaM(7).X[0]
	resp := scoreResponse{RequestID: "1", Score: 0.5}
	if allocs := testing.AllocsPerRun(100, func() {
		s.auditScored(nil, m, row, resp, 1)
		s.auditOutcome(nil, audit.OutcomeShed, "x")
		s.auditFeedback("1", 1, "matched")
		s.auditSwap(ModelInfo{}, 0)
	}); allocs != 0 {
		t.Fatalf("audit helpers allocate %.1f per call with auditing disabled, want 0", allocs)
	}
}

// TestParseExplainNoQueryZeroAlloc keeps the ?explain parse off the
// hot path entirely when the URL has no query string.
func TestParseExplainNoQueryZeroAlloc(t *testing.T) {
	r := httptest.NewRequest(http.MethodPost, "/v1/score", nil)
	if allocs := testing.AllocsPerRun(100, func() {
		if k, err := parseExplain(r); k != 0 || err != nil {
			t.Fatalf("parseExplain = %d, %v", k, err)
		}
	}); allocs != 0 {
		t.Fatalf("parseExplain allocates %.1f per call without a query, want 0", allocs)
	}
}
