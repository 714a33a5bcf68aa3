package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hdfe/internal/core"
	"hdfe/internal/obs/audit"
	"hdfe/internal/synth"
)

// fixture builds a saved deployment artifact plus an audit directory
// holding events scored by exactly that artifact.
func fixture(t *testing.T) (dir, model string) {
	t.Helper()
	root := t.TempDir()
	d := synth.PimaM(7)
	dep, err := core.BuildDeployment(core.SpecsFor(d.Features), d.X, d.Y, core.Options{Dim: 256, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	model = filepath.Join(root, "model.bin")
	if err := dep.Save(model); err != nil {
		t.Fatal(err)
	}
	// Score through the artifact as read back from disk — the exact
	// bytes replay will load — and record its content sha.
	rdep, sha, err := core.ReadFile(model)
	if err != nil {
		t.Fatal(err)
	}
	dir = filepath.Join(root, "audit")
	l, err := audit.Open(audit.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		row := d.X[i]
		score := rdep.Score(row)
		l.Enqueue(audit.Event{
			Route: "score", Outcome: audit.OutcomeScored,
			RequestID: fmt.Sprintf("req-%d", i), ModelVersion: 1, ModelSHA256: sha,
			Inputs: audit.Inputs(row), InputsSHA256: audit.InputsDigest(row),
			Score: score, ScoreBits: math.Float64bits(score), Prediction: pred(score),
		})
	}
	l.Enqueue(audit.Event{Route: "score", Outcome: audit.OutcomeShed, Reason: "queue_full"})
	l.Close()
	return dir, model
}

func pred(score float64) int {
	if score >= 0.5 {
		return 1
	}
	return 0
}

func runT(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var out, errb bytes.Buffer
	err := run(args, &out, &errb)
	return out.String() + errb.String(), err
}

func TestVerifyAndReplayCleanTrail(t *testing.T) {
	dir, model := fixture(t)

	out, err := runT(t, "verify", "-dir", dir)
	if err != nil {
		t.Fatalf("verify: %v\n%s", err, out)
	}
	if !strings.Contains(out, "audit chain OK: 13 events") || !strings.Contains(out, "scored=12") || !strings.Contains(out, "shed=1") {
		t.Fatalf("verify output:\n%s", out)
	}

	out, err = runT(t, "replay", "-dir", dir, "-model", model)
	if err != nil {
		t.Fatalf("replay: %v\n%s", err, out)
	}
	if !strings.Contains(out, "replayed 12 scored events") || !strings.Contains(out, "matched 12, diverged 0") {
		t.Fatalf("replay output:\n%s", out)
	}
}

func TestVerifyFailsOnTamperedTrail(t *testing.T) {
	dir, _ := fixture(t)
	seg := filepath.Join(dir, "audit-000001.jsonl")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte in the middle of the file.
	data[len(data)/2] ^= 1
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := runT(t, "verify", "-dir", dir)
	if err == nil {
		t.Fatalf("verify passed a tampered trail:\n%s", out)
	}
	if !strings.Contains(err.Error(), "FAILED") {
		t.Fatalf("verify error %q does not say FAILED", err)
	}
}

func TestReplayDetectsDivergence(t *testing.T) {
	dir, model := fixture(t)
	// A different artifact (different seed) scores differently; under
	// -all its divergences are informational, under attribution they are
	// skipped (sha mismatch), so replay stays clean.
	d := synth.PimaM(7)
	other, err := core.BuildDeployment(core.SpecsFor(d.Features), d.X, d.Y, core.Options{Dim: 256, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	otherPath := filepath.Join(t.TempDir(), "other.bin")
	if err := other.Save(otherPath); err != nil {
		t.Fatal(err)
	}

	out, err := runT(t, "replay", "-dir", dir, "-model", otherPath)
	if err != nil {
		t.Fatalf("attributed replay against a foreign model must skip, not fail: %v\n%s", err, out)
	}
	if !strings.Contains(out, "other model 12") {
		t.Fatalf("replay output:\n%s", out)
	}

	out, err = runT(t, "replay", "-dir", dir, "-model", otherPath, "-all")
	if err != nil {
		t.Fatalf("-all replay is informational: %v\n%s", err, out)
	}
	if !strings.Contains(out, "diverged 12") || !strings.Contains(out, "expected under -all") {
		t.Fatalf("-all replay output:\n%s", out)
	}

	// Sanity: the original model still replays clean.
	if out, err := runT(t, "replay", "-dir", dir, "-model", model); err != nil {
		t.Fatalf("clean replay: %v\n%s", err, out)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"bogus"},
		{"verify"},
		{"replay"},
		{"replay", "-dir", "x"},
	} {
		if _, err := runT(t, args...); err == nil {
			t.Errorf("run(%v): no error", args)
		}
	}
}
