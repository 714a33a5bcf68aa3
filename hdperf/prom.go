package main

import (
	"fmt"
	"strconv"
	"strings"
)

// promSample is one sample line of a Prometheus text exposition.
type promSample struct {
	name   string
	labels string // the label block without braces, e.g. stage="encode"
	value  float64
}

// promSnap is one scrape of /metrics.
type promSnap []promSample

// parseProm parses Prometheus text format as hdserve writes it: comment
// lines, then `name{labels} value` lines, some with an OpenMetrics
// exemplar suffix after " # ".
func parseProm(b []byte) (promSnap, error) {
	var out promSnap
	for _, line := range strings.Split(string(b), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		if i := strings.Index(line, " # "); i >= 0 {
			line = line[:i]
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("prom: no value in %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("prom: %q: %w", line, err)
		}
		s := promSample{name: line[:sp], value: v}
		if i := strings.IndexByte(s.name, '{'); i >= 0 {
			s.labels = strings.TrimSuffix(s.name[i+1:], "}")
			s.name = s.name[:i]
		}
		out = append(out, s)
	}
	return out, nil
}

// sum adds up every sample of the family name that carries all the given
// label pairs, each written as key="value".
func (p promSnap) sum(name string, pairs ...string) float64 {
	total := 0.0
	for _, s := range p {
		if s.name == name && hasLabels(s.labels, pairs) {
			total += s.value
		}
	}
	return total
}

// label returns the value of label key on the first sample of family
// name, or "".
func (p promSnap) label(name, key string) string {
	for _, s := range p {
		if s.name != name {
			continue
		}
		for _, kv := range strings.Split(s.labels, ",") {
			if k, v, ok := strings.Cut(kv, "="); ok && k == key {
				return strings.Trim(v, `"`)
			}
		}
	}
	return ""
}

func hasLabels(labels string, pairs []string) bool {
	have := strings.Split(labels, ",")
	for _, want := range pairs {
		found := false
		for _, h := range have {
			if h == want {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}
