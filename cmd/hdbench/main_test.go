package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func TestRunTable1Smoke(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-exp", "table1", "-quick", "-seed", "1"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"Table I — feature distribution",
		"Glucose",
		"(table1 completed in",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunRuntimeSmoke(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-exp", "runtime", "-quick", "-dim", "512"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "(runtime completed in") {
		t.Fatalf("runtime experiment did not complete:\n%s", out.String())
	}
}

var update = flag.Bool("update", false, "rewrite cmd/hdbench/testdata goldens from this run")

// stripTiming drops the wall-clock "(<exp> completed in …)" line.
func stripTiming(out string) string {
	var kept []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "(") && strings.Contains(line, " completed in ") {
			continue
		}
		kept = append(kept, line)
	}
	return strings.Join(kept, "\n")
}

// TestRunExperimentDispatch drives every table-producing -exp branch at
// a tiny configuration: each must render, report completion, and match
// testdata/<exp>.golden byte for byte once its timing line is stripped,
// so a model or kernel change that moves any of the paper's numbers
// fails here. The comparison is skipped off amd64, where fused
// multiply-add may change float results. Rewrite the goldens with
// `go test ./cmd/hdbench -run TestRunExperimentDispatch -update`; a
// rewritten golden is a result change and needs its reason recorded.
func TestRunExperimentDispatch(t *testing.T) {
	tiny := []string{"-quick", "-dim", "256", "-folds", "2", "-trials", "1", "-curve-repeats", "1"}
	for _, tc := range []struct {
		exp  string
		args []string
	}{
		{"table1", []string{"-quick", "-seed", "1"}},
		{"table2", tiny}, {"table3", tiny}, {"table4", tiny}, {"table5", tiny},
		{"curve", tiny}, {"mcnemar", tiny}, {"ablations", tiny},
	} {
		t.Run(tc.exp, func(t *testing.T) {
			var out, errOut bytes.Buffer
			if err := run(append([]string{"-exp", tc.exp}, tc.args...), &out, &errOut); err != nil {
				t.Fatal(err)
			}
			if want := "(" + tc.exp + " completed in"; !strings.Contains(out.String(), want) {
				t.Fatalf("output missing %q:\n%s", want, out.String())
			}
			got := stripTiming(out.String())
			golden := filepath.Join("testdata", tc.exp+".golden")
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			if runtime.GOARCH != "amd64" {
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("%s output differs from %s:\n--- got\n%s\n--- want\n%s", tc.exp, golden, got, want)
			}
		})
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-exp", "table99"}, &out, &errOut); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if err := run([]string{"-not-a-flag"}, &out, &errOut); err == nil {
		t.Fatal("bogus flag accepted")
	}
}

func TestRunIsDeterministicPerSeed(t *testing.T) {
	var a, b, discard bytes.Buffer
	if err := run([]string{"-exp", "table1", "-seed", "7"}, &a, &discard); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-exp", "table1", "-seed", "7"}, &b, &discard); err != nil {
		t.Fatal(err)
	}
	if stripTiming(a.String()) != stripTiming(b.String()) {
		t.Fatal("same seed produced different Table I output")
	}
}
