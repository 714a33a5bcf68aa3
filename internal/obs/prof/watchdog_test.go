package prof

import (
	"bytes"
	"log/slog"
	"math"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"testing"
	"time"
)

func wdCfg() WatchdogConfig {
	return WatchdogConfig{Window: 8}.withDefaults()
}

func TestEvalGoroutinesHighWater(t *testing.T) {
	cfg := wdCfg()
	cfg.GoroutineHighWater = 100
	samples := []wdSample{{goroutines: 99}}
	if v, firing := evalGoroutines(samples, cfg); firing || v != 99 {
		t.Fatalf("below high water: v=%v firing=%v", v, firing)
	}
	samples = []wdSample{{goroutines: 100}}
	if _, firing := evalGoroutines(samples, cfg); !firing {
		t.Fatal("at high water: want firing")
	}
}

func TestEvalGoroutinesLeakSignature(t *testing.T) {
	cfg := wdCfg()
	cfg.GoroutineHighWater = 1 << 30 // out of reach: isolate the leak path
	cfg.GoroutineLeakGrowth = 64
	// Monotonic growth of 70 across a full window: the leak signature.
	var samples []wdSample
	for i := 0; i < cfg.Window; i++ {
		samples = append(samples, wdSample{goroutines: 10 + i*10})
	}
	if _, firing := evalGoroutines(samples, cfg); !firing {
		t.Fatal("monotonic full-window growth: want firing")
	}
	// Same growth but not a full window yet: no verdict.
	if _, firing := evalGoroutines(samples[:cfg.Window-1], cfg); firing {
		t.Fatal("partial window must not fire the leak path")
	}
	// Sawtooth with the same net growth: too non-monotonic to be a leak.
	saw := make([]wdSample, cfg.Window)
	for i := range saw {
		if i%2 == 0 {
			saw[i] = wdSample{goroutines: 10}
		} else {
			saw[i] = wdSample{goroutines: 90}
		}
	}
	if _, firing := evalGoroutines(saw, cfg); firing {
		t.Fatal("sawtooth must not fire")
	}
}

func TestEvalHeapSlope(t *testing.T) {
	cfg := wdCfg()
	cfg.HeapSlopeBytesPerSec = 10 << 20 // 10 MiB/s
	t0 := time.Unix(1000, 0)
	mk := func(n int, perSec uint64) []wdSample {
		out := make([]wdSample, n)
		for i := range out {
			out[i] = wdSample{at: t0.Add(time.Duration(i) * time.Second), heapInuse: uint64(i) * perSec}
		}
		return out
	}
	if v, firing := evalHeapSlope(mk(cfg.Window, 20<<20), cfg); !firing || v < float64(10<<20) {
		t.Fatalf("20 MiB/s growth: v=%v firing=%v", v, firing)
	}
	if _, firing := evalHeapSlope(mk(cfg.Window, 1<<20), cfg); firing {
		t.Fatal("1 MiB/s growth must not fire")
	}
	// Less than half a window of history: not enough evidence.
	if _, firing := evalHeapSlope(mk(cfg.Window/2-1, 100<<20), cfg); firing {
		t.Fatal("short history must not fire")
	}
}

func TestEvalGCPause(t *testing.T) {
	cfg := wdCfg()
	cfg.GCPauseP99 = 50 * time.Millisecond
	buckets := []float64{0, 1e-3, 1e-2, 1e-1, math.Inf(1)}
	mk := func(counts ...uint64) wdSample {
		return wdSample{gcPauses: &metrics.Float64Histogram{Buckets: buckets, Counts: counts}}
	}
	// Window delta entirely in the (10ms,100ms] bucket: p99 = 100ms >= 50ms.
	slow := []wdSample{mk(100, 0, 0, 0), mk(100, 0, 5, 0)}
	if v, firing := evalGCPause(slow, cfg); !firing || v != 0.1 {
		t.Fatalf("slow pauses: v=%v firing=%v", v, firing)
	}
	// Delta entirely sub-millisecond: quiet.
	fast := []wdSample{mk(100, 0, 0, 0), mk(200, 0, 0, 0)}
	if _, firing := evalGCPause(fast, cfg); firing {
		t.Fatal("fast pauses must not fire")
	}
	if _, firing := evalGCPause(slow[:1], cfg); firing {
		t.Fatal("single sample must not fire")
	}
}

func TestTransitionEdgeTriggered(t *testing.T) {
	var logBuf bytes.Buffer
	cfg := manualConfig()
	cfg.Logger = slog.New(slog.NewTextHandler(&logBuf, nil))
	p := New(cfg)
	defer p.Close()

	w := p.wd
	// Two consecutive firing ticks: one warning, one trigger count.
	w.transition(WatchdogGoroutines, 5000, true, KindGoroutine)
	w.transition(WatchdogGoroutines, 5100, true, KindGoroutine)
	if got := strings.Count(logBuf.String(), "runtime watchdog firing"); got != 1 {
		t.Fatalf("firing logged %d times, want 1 (edge-triggered):\n%s", got, logBuf.String())
	}
	states := p.WatchdogStates()
	var g WatchdogState
	for _, st := range states {
		if st.Name == WatchdogGoroutines {
			g = st
		}
	}
	if !g.Firing || g.Triggers != 1 || g.Since.IsZero() || g.Value != 5100 {
		t.Fatalf("state = %+v", g)
	}
	if g.LastCaptureID == 0 {
		t.Fatal("firing edge must capture evidence")
	}
	c, ok := p.Ring().Get(g.LastCaptureID)
	if !ok || c.Meta.Kind != KindGoroutine || c.Meta.Trigger != "watchdog:goroutines" {
		t.Fatalf("evidence capture = %+v ok=%v", c.Meta, ok)
	}

	// Recovery: one info line, state clears, trigger count unchanged.
	w.transition(WatchdogGoroutines, 10, false, KindGoroutine)
	w.transition(WatchdogGoroutines, 10, false, KindGoroutine)
	if got := strings.Count(logBuf.String(), "runtime watchdog recovered"); got != 1 {
		t.Fatalf("recovery logged %d times, want 1", got)
	}
	for _, st := range p.WatchdogStates() {
		if st.Name == WatchdogGoroutines && (st.Firing || st.Triggers != 1) {
			t.Fatalf("post-recovery state = %+v", st)
		}
	}

	// A second excursion is a second trigger.
	w.transition(WatchdogGoroutines, 6000, true, KindGoroutine)
	for _, st := range p.WatchdogStates() {
		if st.Name == WatchdogGoroutines && st.Triggers != 2 {
			t.Fatalf("second excursion state = %+v", st)
		}
	}
}

// TestGoroutineLeakWatchdogE2E leaks goroutines under a running profiler
// and waits for the watchdog to fire, capture evidence, and recover once
// the leak is released.
func TestGoroutineLeakWatchdogE2E(t *testing.T) {
	var logMu sync.Mutex
	var logBuf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(lockedWriter{mu: &logMu, buf: &logBuf}, nil))

	base := runtime.NumGoroutine()
	cfg := Config{
		Interval:      -1, // watchdog only
		MutexFraction: -1,
		Logger:        logger,
		Watchdog: WatchdogConfig{
			Tick:               5 * time.Millisecond,
			Window:             8,
			GoroutineHighWater: base + 50,
			// Keep the other watchdogs out of the way.
			HeapSlopeBytesPerSec: -1,
			GCPauseP99:           -1,
		},
	}
	p := New(cfg)
	p.Start()
	defer p.Close()

	// Leak: 100 goroutines parked on a channel.
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-release
		}()
	}

	waitState := func(wantFiring bool, what string) WatchdogState {
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			for _, st := range p.WatchdogStates() {
				if st.Name == WatchdogGoroutines && st.Firing == wantFiring {
					return st
				}
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("timed out waiting for %s", what)
		return WatchdogState{}
	}

	st := waitState(true, "watchdog to fire")
	if st.Triggers < 1 || st.LastCaptureID == 0 {
		t.Fatalf("firing state = %+v", st)
	}
	c, ok := p.Ring().Get(st.LastCaptureID)
	if !ok || c.Meta.Kind != KindGoroutine || c.Meta.Trigger != "watchdog:goroutines" {
		t.Fatalf("evidence = %+v ok=%v", c.Meta, ok)
	}
	// The captured goroutine profile must actually show the leaked
	// stacks: runtime/pprof stores function names verbatim in the
	// profile's string table.
	raw, err := gunzip(c.Blob)
	if err != nil {
		t.Fatalf("evidence blob: %v", err)
	}
	if !bytes.Contains(raw, []byte("TestGoroutineLeakWatchdogE2E.func")) {
		t.Fatal("evidence profile does not name the leaking goroutines")
	}

	close(release)
	wg.Wait()
	waitState(false, "watchdog to recover")

	logMu.Lock()
	logs := logBuf.String()
	logMu.Unlock()
	if !strings.Contains(logs, "runtime watchdog firing") || !strings.Contains(logs, "runtime watchdog recovered") {
		t.Fatalf("logs missing transitions:\n%s", logs)
	}
}

type lockedWriter struct {
	mu  *sync.Mutex
	buf *bytes.Buffer
}

func (w lockedWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}
