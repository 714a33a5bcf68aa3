package chaos

import (
	"strings"
	"testing"
	"time"
)

func TestNilInjectorIsNoOp(t *testing.T) {
	var in *Injector
	if err := in.Inject(PointScore); err != nil {
		t.Fatalf("nil injector injected %v", err)
	}
	if in.Fired(PointScore) != 0 {
		t.Fatal("nil injector counted a firing")
	}
	if in.String() != "disabled" {
		t.Fatalf("nil injector String() = %q", in.String())
	}
}

func TestParseEmptySpecDisables(t *testing.T) {
	for _, spec := range []string{"", "   "} {
		in, err := Parse(spec, 1)
		if err != nil {
			t.Fatalf("Parse(%q) = %v", spec, err)
		}
		if in != nil {
			t.Fatalf("Parse(%q) returned a live injector", spec)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	in, err := Parse("score:p=0.5,delay=5ms,jitter=10ms; audit:err=disk gone ;shadow:delay=1ms", 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.faults[PointScore]) != 1 || len(in.faults[PointAudit]) != 1 || len(in.faults[PointShadow]) != 1 {
		t.Fatalf("fault placement: %+v", in.faults)
	}
	f := in.faults[PointScore][0]
	if f.P != 0.5 || f.Delay != 5*time.Millisecond || f.Jitter != 10*time.Millisecond {
		t.Fatalf("score fault %+v", f)
	}
	if got := in.faults[PointAudit][0].Err; got != "disk gone" {
		t.Fatalf("audit err %q", got)
	}
	s := in.String()
	for _, want := range []string{"score:p=0.5", "audit:p=1", "err=disk gone", "shadow:p=1,delay=1ms"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() %q missing %q", s, want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"warp:delay=1ms",      // unknown point
		"batch:delay=1ms",     // retired point name
		"http:delay=1ms",      // retired point name
		"load:err=disk gone",  // retired point name
		"export:delay=500ms",  // retired point name
		"score",               // no colon
		"score:delay",         // no key=val
		"score:p=high",        // bad float
		"score:delay=fast",    // bad duration
		"score:jitter=-1ms",   // negative jitter
		"score:speed=11",      // unknown key
		"audit:err=",          // empty error message
		"score:delay=-5ms",    // negative delay
		"score:p=1;;warp:p=1", // bad clause after empty one
		"score:jitter=oops",   // bad jitter duration
		"score:p=0.5,delay=5", // bare number is not a duration
	}
	for _, spec := range cases {
		if _, err := Parse(spec, 1); err == nil {
			t.Errorf("Parse(%q) accepted", spec)
		}
	}
}

func TestInjectErrorAndCount(t *testing.T) {
	in := New(42, Fault{Point: PointAudit, P: 1, Err: "boom"})
	err := in.Inject(PointAudit)
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("Inject = %v", err)
	}
	if got := in.Fired(PointAudit); got != 1 {
		t.Fatalf("Fired = %d", got)
	}
	// Other points stay silent.
	if err := in.Inject(PointScore); err != nil {
		t.Fatalf("unconfigured point injected %v", err)
	}
	if got := in.Fired(PointScore); got != 0 {
		t.Fatalf("unconfigured point fired %d", got)
	}
}

func TestProbabilityZeroNeverFires(t *testing.T) {
	in := New(1, Fault{Point: PointScore, P: 0, Err: "never"})
	for i := 0; i < 100; i++ {
		if err := in.Inject(PointScore); err != nil {
			t.Fatalf("p=0 fault fired on consultation %d: %v", i, err)
		}
	}
	if in.Fired(PointScore) != 0 {
		t.Fatal("p=0 fault counted firings")
	}
}

// TestDeterministicReplay pins the seam's core promise: the same seed and
// consultation order reproduce the same firing decisions exactly.
func TestDeterministicReplay(t *testing.T) {
	run := func() []bool {
		in := New(99, Fault{Point: PointScore, P: 0.3, Err: "flaky"})
		out := make([]bool, 200)
		for i := range out {
			out[i] = in.Inject(PointScore) != nil
		}
		return out
	}
	a, b := run(), run()
	fired := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("consultation %d diverged between replays", i)
		}
		if a[i] {
			fired++
		}
	}
	// With p=0.3 over 200 draws the firing count is ~60; anything inside
	// [30, 100] confirms the probability roll is actually rolling.
	if fired < 30 || fired > 100 {
		t.Fatalf("p=0.3 fired %d/200 times", fired)
	}
}

func TestInjectSleepsDelay(t *testing.T) {
	in := New(5, Fault{Point: PointShadow, P: 1, Delay: 20 * time.Millisecond})
	start := time.Now()
	if err := in.Inject(PointShadow); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 15*time.Millisecond {
		t.Fatalf("delay fault slept only %v", elapsed)
	}
}

func TestJitterStaysBounded(t *testing.T) {
	in := New(3, Fault{Point: PointScore, P: 1, Jitter: 2 * time.Millisecond})
	start := time.Now()
	for i := 0; i < 5; i++ {
		if err := in.Inject(PointScore); err != nil {
			t.Fatal(err)
		}
	}
	if elapsed := time.Since(start); elapsed > 200*time.Millisecond {
		t.Fatalf("5 jittered consultations took %v, jitter unbounded?", elapsed)
	}
	if got := in.Fired(PointScore); got != 5 {
		t.Fatalf("Fired = %d, want 5", got)
	}
}
