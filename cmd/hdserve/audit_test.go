package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"hdfe/internal/core"
	"hdfe/internal/obs/audit"
)

// TestRunAuditTrail boots hdserve with -audit-dir, scores traffic, shuts
// down, and then verifies and replays the trail offline — the same loop
// scripts/audit_smoke.sh runs against the installed binaries.
func TestRunAuditTrail(t *testing.T) {
	dir := t.TempDir()
	model := filepath.Join(dir, "dep.bin")
	auditDir := filepath.Join(dir, "audit")
	var out, errOut bytes.Buffer
	if err := run(context.Background(), []string{"-write-demo", model, "-dim", "128"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stdout := &syncBuffer{}
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-model", model, "-addr", "127.0.0.1:0",
			"-audit-dir", auditDir, "-audit-fsync", "50ms"}, stdout, &errOut)
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
	if !strings.Contains(stdout.String(), "audit trail enabled") {
		t.Fatalf("no audit-enabled log line; stdout %q", stdout.String())
	}

	wantBits := map[string]uint64{}
	for i := 0; i < 5; i++ {
		resp, err := http.Post("http://"+addr+"/v1/score", "application/json",
			strings.NewReader(`{"features":[2,120,70,25,100,30.5,0.4,40]}`))
		if err != nil {
			t.Fatal(err)
		}
		var sr struct {
			RequestID string  `json:"request_id"`
			Score     float64 `json:"score"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("score status %d", resp.StatusCode)
		}
		wantBits[sr.RequestID] = math.Float64bits(sr.Score)
	}

	// The exposition must carry the audit families.
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var prom bytes.Buffer
	prom.ReadFrom(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"hdfe_audit_events_total", "hdfe_audit_chain_length", "hdfe_audit_dropped_total"} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("/metrics missing %s", want)
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

	res, err := audit.VerifyDir(auditDir)
	if err != nil {
		t.Fatalf("VerifyDir: %v", err)
	}
	if res.Outcomes["scored"] != len(wantBits) {
		t.Fatalf("%d scored events, want %d (census %v)", res.Outcomes["scored"], len(wantBits), res.Outcomes)
	}
	dep, sha, err := core.ReadFile(model)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := audit.Replay(auditDir, dep, sha)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Replayed != len(wantBits) || rr.Matched != rr.Replayed {
		t.Fatalf("replay: replayed %d matched %d, want %d", rr.Replayed, rr.Matched, len(wantBits))
	}

	// A second boot on the same directory must resume the chain, not
	// restart it.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	stdout2 := &syncBuffer{}
	done2 := make(chan error, 1)
	go func() {
		done2 <- run(ctx2, []string{"-model", model, "-addr", "127.0.0.1:0",
			"-audit-dir", auditDir}, stdout2, &errOut)
	}()
	deadline = time.Now().Add(10 * time.Second)
	for !strings.Contains(stdout2.String(), "audit trail enabled") {
		if time.Now().After(deadline) {
			t.Fatalf("second boot never enabled audit; stdout %q", stdout2.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !strings.Contains(stdout2.String(), "resumed_seq="+strconv.FormatUint(res.LastSeq, 10)) {
		t.Errorf("second boot did not resume at seq %d; stdout %q", res.LastSeq, stdout2.String())
	}
	cancel2()
	if err := <-done2; err != nil {
		t.Fatalf("second run returned %v", err)
	}
}

func TestRunAuditFlagErrors(t *testing.T) {
	var out, errOut bytes.Buffer
	ctx := context.Background()
	for _, args := range [][]string{
		{"-demo", "-audit-dir", "x", "-audit-fsync", "sometimes"},
		{"-demo", "-audit-dir", "x", "-audit-fsync", "-1s"},
	} {
		if err := run(ctx, args, &out, &errOut); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}
