package obs

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
)

// sampleLine matches a Prometheus text-format sample:
// name{labels} value — a structural validity check for everything the
// writer produces.
var sampleLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (\+Inf|NaN|[-+0-9.eE]+)$`)

func TestPromWriterFormat(t *testing.T) {
	var buf bytes.Buffer
	p := NewPromWriter(&buf)
	p.Header("x_total", "counter", "A counter.")
	p.Value("x_total", 3)
	p.Header("y", "gauge", "A labelled gauge.")
	p.Value("y", 1.5, "route", "score", "weird", "a\"b\\c\nd")
	p.Header("h_seconds", "histogram", "A histogram.")
	p.Histogram("h_seconds", []float64{0.001, 0.01}, []uint64{2, 3, 1}, 0.25, "stage", "encode")
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	for _, want := range []string{
		"# HELP x_total A counter.",
		"# TYPE x_total counter",
		"x_total 3",
		`y{route="score",weird="a\"b\\c\nd"} 1.5`,
		`h_seconds_bucket{stage="encode",le="0.001"} 2`,
		`h_seconds_bucket{stage="encode",le="0.01"} 5`,
		`h_seconds_bucket{stage="encode",le="+Inf"} 6`,
		`h_seconds_sum{stage="encode"} 0.25`,
		`h_seconds_count{stage="encode"} 6`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if !strings.HasPrefix(line, "#") && !sampleLine.MatchString(line) {
			t.Errorf("malformed sample line %q", line)
		}
	}
}
