package export

import (
	"encoding/binary"
	"strconv"
	"time"

	"hdfe/internal/obs"
)

// DeriveSpanID deterministically derives a child span ID from a parent
// span ID and a salt (stage index, record index, ...). SplitMix64 keeps
// the IDs well distributed; the all-zero ID is forbidden by the spec,
// so it maps to 1.
func DeriveSpanID(parent [8]byte, salt uint64) (id [8]byte) {
	x := binary.BigEndian.Uint64(parent[:])
	x += 0x9e3779b97f4a7c15 * (salt + 1)
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	binary.BigEndian.PutUint64(id[:], x)
	if id == ([8]byte{}) {
		id[7] = 1
	}
	return id
}

// FromTrace converts one finished pipeline trace into OTLP spans: a
// root server span covering the whole request, plus one child span per
// pipeline stage the request actually crossed. Stage spans are laid out
// sequentially from the request start in pipeline order — the tracer
// records per-stage durations, not wall-clock intervals, so the
// layout is an attribution of the total, exact in duration and
// approximate in offset.
func FromTrace(t obs.Trace) []Span {
	status := StatusOK
	msg := ""
	if t.Status >= 400 {
		status = StatusError
		if t.Shed != "" {
			msg = "shed: " + t.Shed
		}
	}
	root := Span{
		TraceID:   t.Ctx.TraceID,
		SpanID:    t.Ctx.SpanID,
		Parent:    t.Parent,
		Name:      t.Route,
		Kind:      KindServer,
		Start:     t.Start,
		End:       t.Start.Add(t.Total),
		Status:    status,
		StatusMsg: msg,
		Attrs: []Attr{
			String("hdfe.route", t.Route),
			Int("http.status_code", int64(t.Status)),
		},
	}
	if t.Batch > 0 {
		root.Attrs = append(root.Attrs, Int("hdfe.batch_size", int64(t.Batch)))
	}
	if t.Model > 0 {
		root.Attrs = append(root.Attrs, Int("hdfe.model_version", int64(t.Model)))
	}
	if t.Shed != "" {
		root.Attrs = append(root.Attrs, String("hdfe.shed_reason", t.Shed))
	}
	spans := make([]Span, 0, 1+obs.NumStages)
	spans = append(spans, root)
	cursor := t.Start
	for s := 0; s < obs.NumStages; s++ {
		d := t.Stages[s]
		if d <= 0 {
			continue
		}
		sp := Span{
			TraceID: t.Ctx.TraceID,
			SpanID:  DeriveSpanID(t.Ctx.SpanID, uint64(s)),
			Parent:  t.Ctx.SpanID,
			Name:    obs.Stage(s).String(),
			Kind:    KindInternal,
			Start:   cursor,
			End:     cursor.Add(d),
			Status:  StatusUnset,
		}
		if t.Batch > 0 && (obs.Stage(s) == obs.StageEncode || obs.Stage(s) == obs.StageScore) {
			// The span covers the encode/score work of every record the
			// request scored.
			sp.Attrs = append(sp.Attrs, Int("hdfe.batch_size", int64(t.Batch)))
		}
		cursor = cursor.Add(d)
		spans = append(spans, sp)
	}
	return spans
}

// DisagreementSpan builds the always-exported span the shadow worker
// emits when the canary flips a prediction: it joins the original
// request's trace so a disagreement is one click away from the request
// that produced it, even though the comparison ran after the response.
func DisagreementSpan(tc obs.TraceContext, record int, modelVersion uint64, active, shadow float64, at time.Time) Span {
	return Span{
		TraceID: tc.TraceID,
		SpanID:  DeriveSpanID(tc.SpanID, 0x5ad0+uint64(record)),
		Parent:  tc.SpanID,
		Name:    "shadow_disagreement",
		Kind:    KindInternal,
		Start:   at,
		End:     at,
		Status:  StatusUnset,
		Attrs: []Attr{
			Int("hdfe.record", int64(record)),
			Int("hdfe.shadow_model_version", int64(modelVersion)),
			String("hdfe.active_score", formatScore(active)),
			String("hdfe.shadow_score", formatScore(shadow)),
		},
	}
}

// formatScore renders a [0,1] score with enough precision to see the
// disagreement without bloating the attribute.
func formatScore(v float64) string { return strconv.FormatFloat(v, 'f', 6, 64) }
