package main

import "testing"

func TestParseProm(t *testing.T) {
	text := `# HELP hdserve_build_info Build and active model identity (always 1).
# TYPE hdserve_build_info gauge
hdserve_build_info{go_version="go1.24.0",model="m.bin",model_version="1"} 1
hdserve_records_scored_total 5000
hdserve_stage_duration_seconds_sum{stage="encode"} 1.5
hdserve_stage_duration_seconds_sum{stage="score"} 0.25
hdserve_request_duration_seconds_bucket{le="0.0032"} 40 # {trace_id="abc"} 0.003 1700000000.000
hdfe_audit_events_total{outcome="scored"} 10
hdfe_audit_events_total{outcome="feedback"} 5
hdfe_quality_accuracy{model_version="1"} NaN
`
	p, err := parseProm([]byte(text))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		pairs []string
		want  float64
	}{
		{"hdserve_records_scored_total", nil, 5000},
		{"hdserve_stage_duration_seconds_sum", []string{`stage="encode"`}, 1.5},
		{"hdserve_stage_duration_seconds_sum", nil, 1.75},
		{"hdserve_request_duration_seconds_bucket", []string{`le="0.0032"`}, 40},
		{"hdfe_audit_events_total", nil, 15},
		{"hdfe_audit_events_total", []string{`outcome="scored"`}, 10},
		{"hdfe_missing_total", nil, 0},
	} {
		if got := p.sum(c.name, c.pairs...); got != c.want {
			t.Errorf("sum(%s, %v) = %v, want %v", c.name, c.pairs, got, c.want)
		}
	}
	if got := p.label("hdserve_build_info", "go_version"); got != "go1.24.0" {
		t.Errorf("go_version = %q", got)
	}
	if _, err := parseProm([]byte("no_value_line\n")); err == nil {
		t.Error("a line without a value parsed")
	}
}
