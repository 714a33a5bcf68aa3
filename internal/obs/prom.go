package obs

import (
	"io"
	"math"
	"strconv"
	"strings"
	"time"
)

// PromContentType is the Prometheus text exposition content type.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// PromWriter renders Prometheus text exposition format (version 0.0.4)
// with nothing but the standard library. Each call appends its lines to
// one buffer the writer owns, with strconv appends, and writes them with
// one Write, so a render allocates only while that buffer grows. Errors
// are sticky: keep writing and check Err once at the end.
type PromWriter struct {
	w   io.Writer
	buf []byte
	err error
}

// NewPromWriter wraps w.
func NewPromWriter(w io.Writer) *PromWriter { return &PromWriter{w: w} }

// Err returns the first write error, if any.
func (p *PromWriter) Err() error { return p.err }

// flush writes the buffered lines and empties the buffer.
func (p *PromWriter) flush() {
	if p.err == nil {
		_, p.err = p.w.Write(p.buf)
	}
	p.buf = p.buf[:0]
}

// Header emits the # HELP and # TYPE lines for a metric family. typ is
// one of counter, gauge, histogram.
func (p *PromWriter) Header(name, typ, help string) {
	b := append(p.buf, "# HELP "...)
	b = append(b, name...)
	b = append(b, ' ')
	b = append(b, help...)
	b = append(b, "\n# TYPE "...)
	b = append(b, name...)
	b = append(b, ' ')
	b = append(b, typ...)
	p.buf = append(b, '\n')
	p.flush()
}

// labelEscaper escapes a label value per the exposition format. One
// shared instance serves every scrape (a strings.Replacer is safe for
// concurrent use); Replace returns a value with nothing to escape as it
// is, so only a value that needs escaping allocates.
var labelEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)

// appendLabelPairs appends k/v pairs as k1="v1",k2="v2".
func appendLabelPairs(b []byte, labels []string) []byte {
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, labels[i]...)
		b = append(b, `="`...)
		b = append(b, labelEscaper.Replace(labels[i+1])...)
		b = append(b, '"')
	}
	return b
}

// appendSample appends one sample line's name{labels} and the space
// before its value; the braces are left out when there are no labels.
func appendSample(b []byte, name, suffix string, labels []string) []byte {
	b = append(b, name...)
	b = append(b, suffix...)
	if len(labels) > 0 {
		b = append(b, '{')
		b = append(appendLabelPairs(b, labels), '}')
	}
	return append(b, ' ')
}

func appendValue(b []byte, v float64) []byte {
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// Value emits one sample line. labels are key, value pairs.
func (p *PromWriter) Value(name string, v float64, labels ...string) {
	b := appendValue(appendSample(p.buf, name, "", labels), v)
	p.buf = append(b, '\n')
	p.flush()
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
	b := p.buf
	var cum uint64
	for i := range counts[:len(bounds)+1] {
		le := math.Inf(1) // formats as the +Inf bucket's le="+Inf"
		if i < len(bounds) {
			le = bounds[i]
		}
		cum += counts[i]
		b = append(b, name...)
		b = append(b, "_bucket{"...)
		if len(labels) > 0 {
			b = append(appendLabelPairs(b, labels), ',')
		}
		b = append(b, `le="`...)
		b = append(appendValue(b, le), `"} `...)
		b = strconv.AppendUint(b, cum, 10)
		if i < len(ex) && ex[i] != nil {
			b = append(b, ` # {trace_id="`...)
			b = append(b, labelEscaper.Replace(ex[i].TraceID)...)
			b = append(b, `"} `...)
			b = append(appendValue(b, ex[i].Value), ' ')
			b = strconv.AppendFloat(b, float64(ex[i].Ts.UnixMilli())/1e3, 'f', 3, 64)
		}
		b = append(b, '\n')
	}
	b = append(appendValue(appendSample(b, name, "_sum", labels), sum), '\n')
	b = strconv.AppendUint(appendSample(b, name, "_count", labels), cum, 10)
	p.buf = append(b, '\n')
	p.flush()
}
