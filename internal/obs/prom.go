package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// PromContentType is the Prometheus text exposition content type.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// PromWriter renders Prometheus text exposition format (version 0.0.4)
// with nothing but the standard library. Errors are sticky: keep writing
// and check Err once at the end.
type PromWriter struct {
	w   io.Writer
	err error
}

// NewPromWriter wraps w.
func NewPromWriter(w io.Writer) *PromWriter { return &PromWriter{w: w} }

// Err returns the first write error, if any.
func (p *PromWriter) Err() error { return p.err }

func (p *PromWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

// Header emits the # HELP and # TYPE lines for a metric family. typ is
// one of counter, gauge, histogram.
func (p *PromWriter) Header(name, typ, help string) {
	p.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// labelEscaper escapes a label value per the exposition format. One
// shared instance serves every scrape (a strings.Replacer is safe for
// concurrent use); a scrape writes thousands of label values.
var labelEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)

// formatLabels renders k/v pairs as {k1="v1",k2="v2"} (empty for none).
func formatLabels(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labels[i])
		b.WriteString(`="`)
		labelEscaper.WriteString(&b, labels[i+1])
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Value emits one sample line. labels are key, value pairs.
func (p *PromWriter) Value(name string, v float64, labels ...string) {
	p.printf("%s%s %s\n", name, formatLabels(labels), formatValue(v))
}

// Histogram emits a full histogram family: cumulative _bucket lines for
// each upper bound plus +Inf, then _sum and _count. counts must hold one
// entry per bound plus a final overflow entry; bounds are in the
// metric's native unit (seconds for *_seconds). labels apply to every
// line, with le appended on buckets.
func (p *PromWriter) Histogram(name string, bounds []float64, counts []uint64, sum float64, labels ...string) {
	p.HistogramExemplars(name, bounds, counts, sum, nil, labels...)
}

// Exemplar links one histogram bucket to a concrete trace: the trace ID
// of a request that landed in the bucket, the observed value in the
// metric's native unit, and when it was observed. Rendered as the
// OpenMetrics exemplar suffix (`# {trace_id="..."} value timestamp`),
// which Prometheus scrapes when exemplar storage is enabled and other
// collectors ignore as a comment.
type Exemplar struct {
	TraceID string
	Value   float64
	Ts      time.Time
}

// HistogramExemplars is Histogram with an optional exemplar per bucket:
// ex may be nil or hold len(bounds)+1 entries (nil entries skip the
// suffix), aligned with counts.
func (p *PromWriter) HistogramExemplars(name string, bounds []float64, counts []uint64, sum float64, ex []*Exemplar, labels ...string) {
	var cum uint64
	line := func(i int, le string) {
		suffix := ""
		if i < len(ex) && ex[i] != nil {
			suffix = fmt.Sprintf(" # {trace_id=\"%s\"} %s %.3f",
				labelEscaper.Replace(ex[i].TraceID), formatValue(ex[i].Value),
				float64(ex[i].Ts.UnixMilli())/1e3)
		}
		p.printf("%s_bucket%s %d%s\n", name, formatLabels(append(labels, "le", le)), cum, suffix)
	}
	for i, b := range bounds {
		cum += counts[i]
		line(i, formatValue(b))
	}
	cum += counts[len(bounds)]
	line(len(bounds), "+Inf")
	p.printf("%s_sum%s %s\n", name, formatLabels(labels), formatValue(sum))
	p.printf("%s_count%s %d\n", name, formatLabels(labels), cum)
}
