package obs

import (
	"strings"
	"testing"
)

const (
	goodTraceparent = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	goodTraceID     = "4bf92f3577b34da6a3ce929d0e0e4736"
	goodSpanID      = "00f067aa0ba902b7"
)

func TestParseTraceparentValid(t *testing.T) {
	tc, err := ParseTraceparent(goodTraceparent)
	if err != nil {
		t.Fatal(err)
	}
	if !tc.Valid() || !tc.Remote {
		t.Fatalf("parsed context not valid/remote: %+v", tc)
	}
	if got := tc.TraceIDString(); got != goodTraceID {
		t.Errorf("trace ID %s, want %s", got, goodTraceID)
	}
	if got := tc.SpanIDString(); got != goodSpanID {
		t.Errorf("span ID %s, want %s", got, goodSpanID)
	}
	if tc.Flags != FlagSampled {
		t.Errorf("flags %02x, want 01", tc.Flags)
	}
	if got := tc.Traceparent(); got != goodTraceparent {
		t.Errorf("round trip %s, want %s", got, goodTraceparent)
	}
}

// TestParseTraceparentFutureVersion pins the spec's forward-compat rule:
// a non-00 version parses when the first four fields are well-formed and
// anything extra is '-'-appended.
func TestParseTraceparentFutureVersion(t *testing.T) {
	for _, h := range []string{
		"01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-09-extra-fields",
	} {
		tc, err := ParseTraceparent(h)
		if err != nil {
			t.Errorf("%q: %v", h, err)
			continue
		}
		if tc.TraceIDString() != goodTraceID {
			t.Errorf("%q: trace ID %s", h, tc.TraceIDString())
		}
	}
}

func TestParseTraceparentMalformed(t *testing.T) {
	cases := []struct {
		name string
		h    string
	}{
		{"empty", ""},
		{"garbage", "not-a-traceparent"},
		{"short trace ID", "00-4bf92f3577b34da6-00f067aa0ba902b7-01"},
		{"short span ID", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa-01"},
		{"version ff", "ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"},
		{"uppercase hex", "00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01"},
		{"non-hex flags", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-zz"},
		{"all-zero trace ID", "00-00000000000000000000000000000000-00f067aa0ba902b7-01"},
		{"all-zero span ID", "00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01"},
		{"v00 with trailing junk", goodTraceparent + "-extra"},
		{"future version with non-dash suffix", "01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01x"},
		{"misplaced separators", "00_4bf92f3577b34da6a3ce929d0e0e4736_00f067aa0ba902b7_01"},
	}
	for _, c := range cases {
		tc, err := ParseTraceparent(c.h)
		if err == nil {
			t.Errorf("%s: parsed %q without error", c.name, c.h)
		}
		if tc.Valid() {
			t.Errorf("%s: malformed header produced a valid context", c.name)
		}
	}
}

// TestStartWithAdoptsValidParent pins the adopt-or-generate contract:
// a valid upstream identity keeps its trace ID (with the upstream span
// as parent), anything else falls back to a generated one — and the
// request always gets its own fresh span ID.
func TestStartWithAdoptsValidParent(t *testing.T) {
	tr := NewTracerSeeded(4, 7)
	parent, err := ParseTraceparent(goodTraceparent)
	if err != nil {
		t.Fatal(err)
	}
	at := tr.StartWith("score", parent)
	ctx := at.Context()
	if ctx.TraceIDString() != goodTraceID {
		t.Errorf("adopted trace ID %s, want %s", ctx.TraceIDString(), goodTraceID)
	}
	if ctx.SpanIDString() == goodSpanID {
		t.Error("request reused the upstream span ID instead of generating its own")
	}
	done := at.Finish(200)
	if got := (TraceContext{SpanID: done.Parent}).SpanIDString(); got != goodSpanID {
		t.Errorf("parent span %s, want %s", got, goodSpanID)
	}

	// Fallback: an invalid parent generates everything.
	at = tr.StartWith("score", TraceContext{})
	ctx = at.Context()
	if !ctx.Valid() {
		t.Fatalf("generated context invalid: %+v", ctx)
	}
	if ctx.TraceIDString() == goodTraceID {
		t.Error("fallback adopted a trace ID from nowhere")
	}
	if strings.Count(ctx.Traceparent(), "-") != 3 || len(ctx.Traceparent()) != 55 {
		t.Errorf("generated traceparent malformed: %q", ctx.Traceparent())
	}
	done = at.Finish(200)
	if done.Parent != ([8]byte{}) {
		t.Errorf("generated trace has nonzero parent %x", done.Parent)
	}
}

// TestSeededTraceIDsDeterministic pins that two tracers with the same
// seed mint the same identities — the replayability the chaos and
// export tests lean on.
func TestSeededTraceIDsDeterministic(t *testing.T) {
	a := NewTracerSeeded(4, 42)
	b := NewTracerSeeded(4, 42)
	for i := 0; i < 5; i++ {
		ca := a.StartWith("r", TraceContext{}).Context()
		cb := b.StartWith("r", TraceContext{}).Context()
		if ca.TraceIDString() != cb.TraceIDString() || ca.SpanIDString() != cb.SpanIDString() {
			t.Fatalf("iteration %d: %s/%s != %s/%s", i,
				ca.TraceIDString(), ca.SpanIDString(), cb.TraceIDString(), cb.SpanIDString())
		}
	}
	c := NewTracerSeeded(4, 43).StartWith("r", TraceContext{}).Context()
	if c.TraceIDString() == NewTracerSeeded(4, 42).StartWith("r", TraceContext{}).Context().TraceIDString() {
		t.Error("different seeds minted the same trace ID")
	}
}
