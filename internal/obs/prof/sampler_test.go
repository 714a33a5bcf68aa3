package prof

import (
	"bytes"
	"compress/gzip"
	"context"
	"io"
	"strings"
	"testing"
	"time"

	"hdfe/internal/chaos"
	"hdfe/internal/obs"
	"hdfe/internal/rng"
)

// manualConfig is a profiler with no background loop: scheduled captures
// and watchdogs off, so tests drive captures explicitly.
func manualConfig() Config {
	return Config{
		Interval: -1,
		Watchdog: WatchdogConfig{Disable: true},
		// Leave process-global mutex/block rates alone in unit tests.
		MutexFraction: -1,
	}
}

func TestNextDelayJitterBounds(t *testing.T) {
	const interval = 30 * time.Second
	src := rng.New(7)
	lo, hi := interval-interval/5, interval+interval/5
	var min, max time.Duration = hi, lo
	for i := 0; i < 1000; i++ {
		d := nextDelay(src, interval)
		if d < lo || d >= hi {
			t.Fatalf("delay %v outside [%v, %v)", d, lo, hi)
		}
		if d < min {
			min = d
		}
		if d > max {
			max = d
		}
	}
	if max-min < interval/10 {
		t.Fatalf("jitter span %v suspiciously narrow", max-min)
	}
	// Same seed, same sequence.
	a, b := rng.New(42), rng.New(42)
	for i := 0; i < 16; i++ {
		if nextDelay(a, interval) != nextDelay(b, interval) {
			t.Fatal("jitter not deterministic for equal seeds")
		}
	}
}

func TestCaptureSnapshotIntoRing(t *testing.T) {
	p := New(manualConfig())
	defer p.Close()
	meta, err := p.CaptureSnapshot(KindHeap, TriggerHTTP)
	if err != nil {
		t.Fatalf("CaptureSnapshot: %v", err)
	}
	if meta.ID == 0 || meta.SizeBytes == 0 || meta.Kind != KindHeap || meta.Trigger != TriggerHTTP {
		t.Fatalf("meta = %+v", meta)
	}
	if meta.Goroutines <= 0 || meta.HeapInuseBytes == 0 {
		t.Fatalf("runtime stamps missing: %+v", meta)
	}
	c, ok := p.Ring().Get(meta.ID)
	if !ok {
		t.Fatal("capture not in ring")
	}
	if _, err := gunzip(c.Blob); err != nil {
		t.Fatalf("ring blob is not gzipped pprof output: %v", err)
	}
	if got := p.CapturesTotal(KindHeap); got != 1 {
		t.Fatalf("captures(heap) = %d", got)
	}
}

func TestCaptureSnapshotUnknownKind(t *testing.T) {
	p := New(manualConfig())
	defer p.Close()
	if _, err := p.CaptureSnapshot("flamegraph", TriggerHTTP); err == nil {
		t.Fatal("want error for unknown kind")
	}
	if _, err := p.CaptureSnapshot(KindCPU, TriggerHTTP); err == nil {
		t.Fatal("want error: cpu is not a snapshot kind")
	}
}

func TestCaptureCPUSuccess(t *testing.T) {
	cfg := manualConfig()
	cfg.Version = func() uint64 { return 42 }
	p := New(cfg)
	defer p.Close()
	c, err := p.CaptureCPUBlob(context.Background(), 20*time.Millisecond, TriggerScheduled)
	if err != nil {
		t.Fatalf("CaptureCPUBlob: %v", err)
	}
	if c.Meta.Kind != KindCPU || c.Meta.DurationMs <= 0 || c.Meta.ModelVersion != 42 {
		t.Fatalf("meta = %+v", c.Meta)
	}
	if _, err := gunzip(c.Blob); err != nil {
		t.Fatalf("cpu blob not gzipped: %v", err)
	}
	if p.CapturesTotal(KindCPU) != 1 || p.Failures() != 0 {
		t.Fatalf("captures=%d failures=%d", p.CapturesTotal(KindCPU), p.Failures())
	}
	if got, ok := p.Ring().Get(c.Meta.ID); !ok || got.Meta.Kind != KindCPU {
		t.Fatalf("ring entry %d = %+v, %v", c.Meta.ID, got.Meta, ok)
	}
}

// gunzip inflates a ring blob: runtime/pprof writes gzipped protobuf.
func gunzip(blob []byte) ([]byte, error) {
	zr, err := gzip.NewReader(bytes.NewReader(blob))
	if err != nil {
		return nil, err
	}
	return io.ReadAll(zr)
}

func TestCaptureCPUCancelledContext(t *testing.T) {
	p := New(manualConfig())
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.CaptureCPU(ctx, 10*time.Second, TriggerHTTP); err == nil {
		t.Fatal("want context error")
	}
	if p.Failures() != 1 {
		t.Fatalf("failures = %d, want 1", p.Failures())
	}
	if p.Ring().Len() != 0 {
		t.Fatal("cancelled capture must not be ring-kept")
	}
}

func TestChaosInjectedCaptureFailure(t *testing.T) {
	inj, err := chaos.Parse("prof:err=injected capture failure", 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := manualConfig()
	cfg.Chaos = inj
	p := New(cfg)
	defer p.Close()
	if _, err := p.CaptureSnapshot(KindHeap, TriggerScheduled); err == nil || !strings.Contains(err.Error(), "injected capture failure") {
		t.Fatalf("err = %v, want injected failure", err)
	}
	if _, err := p.CaptureCPU(context.Background(), time.Millisecond, TriggerScheduled); err == nil {
		t.Fatal("want injected cpu failure")
	}
	if p.Failures() != 2 {
		t.Fatalf("failures = %d, want 2", p.Failures())
	}
	if inj.Fired(chaos.PointProf) != 2 {
		t.Fatalf("chaos fired = %d, want 2", inj.Fired(chaos.PointProf))
	}
	if p.Ring().Len() != 0 {
		t.Fatal("injected failures must not add ring entries")
	}
}

func TestScheduledLoopCaptures(t *testing.T) {
	cfg := Config{
		Interval:      20 * time.Millisecond,
		CPUDuration:   5 * time.Millisecond,
		SnapshotEvery: 1,
		MutexFraction: -1,
		Watchdog:      WatchdogConfig{Disable: true},
	}
	p := New(cfg)
	p.Start()
	defer p.Close()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if p.CapturesTotal(KindCPU) >= 1 && p.CapturesTotal(KindHeap) >= 1 &&
			p.CapturesTotal(KindGoroutine) >= 1 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if p.CapturesTotal(KindCPU) == 0 || p.CapturesTotal(KindHeap) == 0 {
		t.Fatalf("scheduled loop produced no captures: cpu=%d heap=%d",
			p.CapturesTotal(KindCPU), p.CapturesTotal(KindHeap))
	}
	if p.Ring().Len() == 0 {
		t.Fatal("ring empty after scheduled cycles")
	}
	// Close interrupts a possibly in-flight capture and must not hang.
	done := make(chan struct{})
	go func() { p.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return")
	}
}

func TestProfilerWriteProm(t *testing.T) {
	p := New(manualConfig())
	defer p.Close()
	if _, err := p.CaptureSnapshot(KindHeap, TriggerScheduled); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	p.WriteProm(obs.NewPromWriter(&sb))
	out := sb.String()
	for _, want := range []string{
		"# TYPE hdfe_prof_captures_total counter",
		`hdfe_prof_captures_total{kind="heap"} 1`,
		`hdfe_prof_captures_total{kind="cpu"} 0`,
		"# TYPE hdfe_prof_capture_failures_total counter",
		"hdfe_prof_capture_failures_total 0",
		"# TYPE hdfe_prof_ring_captures gauge",
		"hdfe_prof_ring_captures 1",
		"# TYPE hdfe_prof_watchdog_firing gauge",
		`hdfe_prof_watchdog_firing{watchdog="gc_pause"} 0`,
		`hdfe_prof_watchdog_firing{watchdog="goroutines"} 0`,
		`hdfe_prof_watchdog_firing{watchdog="heap_slope"} 0`,
		"# TYPE hdfe_prof_watchdog_triggers_total counter",
		`hdfe_prof_watchdog_triggers_total{watchdog="goroutines"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("WriteProm missing %q:\n%s", want, out)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Interval != DefaultInterval || c.CPUDuration != DefaultCPUDuration ||
		c.RingSize != DefaultRingSize || c.SnapshotEvery != DefaultSnapshotEvery {
		t.Fatalf("defaults = %+v", c)
	}
	// CPU window clamps to half the cadence.
	c = Config{Interval: 100 * time.Millisecond, CPUDuration: time.Second}.withDefaults()
	if c.CPUDuration != 50*time.Millisecond {
		t.Fatalf("CPUDuration = %v, want clamped 50ms", c.CPUDuration)
	}
}
