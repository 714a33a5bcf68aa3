package prof

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"runtime"
	rpprof "runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"hdfe/internal/chaos"
	"hdfe/internal/obs"
	"hdfe/internal/rng"
)

// Defaults. The scheduled cadence and CPU window give a ~0.8% profiling
// duty cycle; the hot-path overhead bound is pinned by the serve-layer
// benchmark and the profiler-on bit-identity test.
const (
	DefaultInterval    = 30 * time.Second
	DefaultCPUDuration = 250 * time.Millisecond
	DefaultRingSize    = 16
	// DefaultMutexFraction samples 1/64 of mutex contention events;
	// BlockRateNs samples roughly one blocking event per millisecond
	// blocked. Both are the "rate-gated" part of mutex/block profiling:
	// cheap enough to leave on, detailed enough to name a contended lock.
	DefaultMutexFraction = 64
	BlockRateNs          = 1e6
	// DefaultSnapshotEvery captures mutex/block profiles every Nth
	// scheduled cycle, so the ring keeps mostly CPU/heap evidence.
	DefaultSnapshotEvery = 4
)

// Config tunes a Profiler. The zero value is a working configuration
// with the defaults noted on each field.
type Config struct {
	// Interval is the scheduled capture cadence (default 30s). Negative
	// disables scheduled captures; watchdog-triggered and HTTP-triggered
	// captures still work.
	Interval time.Duration
	// CPUDuration is the CPU profile sampling window per cycle
	// (default 250ms, clamped to Interval/2).
	CPUDuration time.Duration
	// RingSize bounds the capture ring (default 16).
	RingSize int
	// Seed drives the scheduling jitter (default 1). Capture times are
	// jittered ±20% so a fleet of replicas started together does not
	// profile in lockstep.
	Seed uint64
	// MutexFraction gates mutex/block profiling (default 64; block
	// events are sampled at BlockRateNs). Negative MutexFraction leaves
	// the process-global rates untouched and skips mutex/block captures.
	MutexFraction int
	// SnapshotEvery captures mutex/block every Nth cycle (default 4).
	SnapshotEvery int
	// Watchdog tunes the runtime watchdogs (see watchdog.go).
	Watchdog WatchdogConfig
	// Logger receives watchdog transitions and capture failures
	// (default: discard).
	Logger *slog.Logger
	// Chaos is the fault-injection seam: point "prof" fires before every
	// capture. Nil costs one branch per capture.
	Chaos *chaos.Injector
	// Version reports the active model version stamped on capture
	// metadata (nil: 0).
	Version func() uint64
}

func (c Config) withDefaults() Config {
	if c.Interval == 0 {
		c.Interval = DefaultInterval
	}
	if c.CPUDuration <= 0 {
		c.CPUDuration = DefaultCPUDuration
	}
	if c.Interval > 0 && c.CPUDuration > c.Interval/2 {
		c.CPUDuration = c.Interval / 2
	}
	if c.RingSize <= 0 {
		c.RingSize = DefaultRingSize
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.MutexFraction == 0 {
		c.MutexFraction = DefaultMutexFraction
	}
	if c.SnapshotEvery <= 0 {
		c.SnapshotEvery = DefaultSnapshotEvery
	}
	c.Watchdog = c.Watchdog.withDefaults()
	if c.Logger == nil {
		c.Logger = obs.NopLogger()
	}
	if c.Version == nil {
		c.Version = func() uint64 { return 0 }
	}
	return c
}

// kindIndex maps capture kinds to counter slots.
var kindNames = [...]string{KindCPU, KindHeap, KindGoroutine, KindMutex, KindBlock}

func kindIndex(kind string) int {
	for i, k := range kindNames {
		if k == kind {
			return i
		}
	}
	return -1
}

// Profiler owns the capture ring, the jittered capture scheduler, and
// the runtime watchdogs. Construct with New, Start it, and Close it when
// the server drains — Close interrupts an in-flight CPU capture and
// restores the process-global mutex/block profiling rates.
type Profiler struct {
	cfg  Config
	ring *Ring

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	// cpuMu serializes CPU profile captures: the runtime allows only one
	// StartCPUProfile at a time process-wide, so the scheduler, the
	// watchdogs, and /debug/pprof/profile all queue here.
	cpuMu sync.Mutex

	// metaMu guards the collector used for capture metadata (the
	// watchdog loop and HTTP-triggered captures read it concurrently).
	metaMu sync.Mutex
	coll   *Collector

	captures [len(kindNames)]atomic.Uint64
	failures atomic.Uint64

	// wdMu guards the watchdog states (mutated on the loop goroutine,
	// read by /debug/prof and /metrics handlers).
	wdMu sync.Mutex
	wd   *watchdogs

	prevMutexFraction int
	prevBlockRate     bool
	started           atomic.Bool
}

// New builds a profiler. Nothing runs until Start.
func New(cfg Config) *Profiler {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	p := &Profiler{
		cfg:    cfg,
		ring:   NewRing(cfg.RingSize),
		ctx:    ctx,
		cancel: cancel,
		coll:   NewCollector(),
	}
	p.wd = newWatchdogs(p)
	return p
}

// Ring exposes the capture ring.
func (p *Profiler) Ring() *Ring { return p.ring }

// Interval reports the effective scheduled cadence (<= 0: disabled).
func (p *Profiler) Interval() time.Duration { return p.cfg.Interval }

// CPUDuration reports the effective CPU sampling window.
func (p *Profiler) CPUDuration() time.Duration { return p.cfg.CPUDuration }

// CapturesTotal reports successful captures of one kind.
func (p *Profiler) CapturesTotal(kind string) uint64 {
	if i := kindIndex(kind); i >= 0 {
		return p.captures[i].Load()
	}
	return 0
}

// Failures reports failed or chaos-injected capture attempts.
func (p *Profiler) Failures() uint64 { return p.failures.Load() }

// Start enables the rate-gated mutex/block profiles and launches the
// scheduler/watchdog goroutine.
// Start is idempotent-hostile by design: call it once.
func (p *Profiler) Start() {
	if !p.started.CompareAndSwap(false, true) {
		return
	}
	if p.cfg.MutexFraction > 0 {
		p.prevMutexFraction = runtime.SetMutexProfileFraction(p.cfg.MutexFraction)
		runtime.SetBlockProfileRate(BlockRateNs)
		p.prevBlockRate = true
	}
	if p.cfg.Interval <= 0 && p.cfg.Watchdog.Disable {
		return
	}
	p.wg.Add(1)
	go p.loop()
}

// Close stops the scheduler (interrupting an in-flight CPU capture) and
// restores the process-global profiling rates.
func (p *Profiler) Close() {
	p.cancel()
	p.wg.Wait()
	if p.started.Load() && p.prevBlockRate {
		runtime.SetMutexProfileFraction(p.prevMutexFraction)
		runtime.SetBlockProfileRate(0)
	}
}

// nextDelay is the jittered inter-capture delay: Interval plus a seeded
// uniform draw in [-20%, +20%).
func nextDelay(src *rng.Source, interval time.Duration) time.Duration {
	span := uint64(interval) * 2 / 5 // 40% window centred on Interval
	if span == 0 {
		return interval
	}
	return interval - interval/5 + time.Duration(src.Uint64n(span))
}

// loop runs scheduled capture cycles and watchdog ticks on one goroutine
// so captures and watchdog evaluation never race each other.
func (p *Profiler) loop() {
	defer p.wg.Done()
	src := rng.New(p.cfg.Seed)
	var captureC <-chan time.Time
	var captureTimer *time.Timer
	if p.cfg.Interval > 0 {
		captureTimer = time.NewTimer(nextDelay(src, p.cfg.Interval))
		defer captureTimer.Stop()
		captureC = captureTimer.C
	}
	var wdC <-chan time.Time
	if !p.cfg.Watchdog.Disable {
		t := time.NewTicker(p.cfg.Watchdog.Tick)
		defer t.Stop()
		wdC = t.C
	}
	cycle := 0
	for {
		select {
		case <-p.ctx.Done():
			return
		case <-captureC:
			p.runCycle(cycle)
			cycle++
			captureTimer.Reset(nextDelay(src, p.cfg.Interval))
		case <-wdC:
			p.wd.tick()
		}
	}
}

// runCycle is one scheduled capture: CPU, heap, goroutine, and — every
// SnapshotEvery cycles — the rate-gated mutex and block profiles.
func (p *Profiler) runCycle(cycle int) {
	if _, err := p.CaptureCPU(p.ctx, p.cfg.CPUDuration, TriggerScheduled); err != nil {
		p.cfg.Logger.Warn("cpu profile capture failed", "err", err)
	}
	for _, kind := range []string{KindHeap, KindGoroutine} {
		if _, err := p.CaptureSnapshot(kind, TriggerScheduled); err != nil {
			p.cfg.Logger.Warn("profile capture failed", "kind", kind, "err", err)
		}
	}
	if p.cfg.MutexFraction > 0 && (cycle+1)%p.cfg.SnapshotEvery == 0 {
		for _, kind := range []string{KindMutex, KindBlock} {
			if _, err := p.CaptureSnapshot(kind, TriggerScheduled); err != nil {
				p.cfg.Logger.Warn("profile capture failed", "kind", kind, "err", err)
			}
		}
	}
}

// captureMeta stamps the runtime state onto a capture.
func (p *Profiler) captureMeta(kind, trigger string) CaptureMeta {
	p.metaMu.Lock()
	s := p.coll.Read()
	p.metaMu.Unlock()
	return CaptureMeta{
		Kind:           kind,
		Trigger:        trigger,
		TakenAt:        time.Now(),
		Goroutines:     s.Goroutines,
		HeapInuseBytes: s.HeapInuseBytes,
		MemTotalBytes:  s.MemTotalBytes,
		ModelVersion:   p.cfg.Version(),
	}
}

// CaptureCPU samples the CPU profile for d (bounded by ctx — a cancelled
// client or a closing profiler stops the capture early) and stores the
// gzipped blob in the ring.
func (p *Profiler) CaptureCPU(ctx context.Context, d time.Duration, trigger string) (CaptureMeta, error) {
	c, err := p.CaptureCPUBlob(ctx, d, trigger)
	return c.Meta, err
}

// CaptureCPUBlob is CaptureCPU returning the blob too (the
// /debug/pprof/profile handler streams it to the client).
func (p *Profiler) CaptureCPUBlob(ctx context.Context, d time.Duration, trigger string) (Capture, error) {
	if err := p.cfg.Chaos.Inject(chaos.PointProf); err != nil {
		p.failures.Add(1)
		return Capture{}, err
	}
	p.cpuMu.Lock()
	defer p.cpuMu.Unlock()
	var buf bytes.Buffer
	start := time.Now()
	if err := rpprof.StartCPUProfile(&buf); err != nil {
		// Another profiler (e.g. a test harness) holds the process-wide
		// CPU profile slot; count and move on.
		p.failures.Add(1)
		return Capture{}, fmt.Errorf("prof: %w", err)
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	var ctxErr error
	select {
	case <-ctx.Done():
		ctxErr = ctx.Err()
	case <-timer.C:
	}
	rpprof.StopCPUProfile()
	if ctxErr != nil {
		// The requester is gone (cancelled download, closing profiler):
		// the partial profile is discarded, not ring-kept.
		p.failures.Add(1)
		return Capture{}, ctxErr
	}
	meta := p.captureMeta(KindCPU, trigger)
	meta.DurationMs = float64(time.Since(start).Microseconds()) / 1e3
	meta.SizeBytes = buf.Len()
	c := Capture{Meta: meta, Blob: buf.Bytes()}
	c.Meta.ID = p.ring.Add(c)
	p.captures[kindIndex(KindCPU)].Add(1)
	return c, nil
}

// CaptureSnapshot captures one of the instantaneous profiles (heap,
// goroutine, mutex, block) into the ring.
func (p *Profiler) CaptureSnapshot(kind, trigger string) (CaptureMeta, error) {
	if kindIndex(kind) < 0 || kind == KindCPU {
		return CaptureMeta{}, fmt.Errorf("prof: unknown snapshot kind %q", kind)
	}
	if err := p.cfg.Chaos.Inject(chaos.PointProf); err != nil {
		p.failures.Add(1)
		return CaptureMeta{}, err
	}
	lookup := rpprof.Lookup(kind)
	if lookup == nil {
		p.failures.Add(1)
		return CaptureMeta{}, fmt.Errorf("prof: no %q profile", kind)
	}
	var buf bytes.Buffer
	if err := lookup.WriteTo(&buf, 0); err != nil {
		p.failures.Add(1)
		return CaptureMeta{}, fmt.Errorf("prof: %s capture: %w", kind, err)
	}
	meta := p.captureMeta(kind, trigger)
	meta.SizeBytes = buf.Len()
	c := Capture{Meta: meta, Blob: buf.Bytes()}
	c.Meta.ID = p.ring.Add(c)
	p.captures[kindIndex(kind)].Add(1)
	return c.Meta, nil
}

// WriteProm renders the profiler's own hdfe_prof_* families (the
// hdfe_runtime_* families come from a Collector owned by the scrape
// path, so a scrape never contends with the watchdog loop).
func (p *Profiler) WriteProm(w *obs.PromWriter) {
	w.Header("hdfe_prof_captures_total", "counter", "Successful profile captures by kind.")
	for i, kind := range kindNames {
		w.Value("hdfe_prof_captures_total", float64(p.captures[i].Load()), "kind", kind)
	}
	w.Header("hdfe_prof_capture_failures_total", "counter", "Failed or chaos-injected profile capture attempts.")
	w.Value("hdfe_prof_capture_failures_total", float64(p.failures.Load()))
	w.Header("hdfe_prof_ring_captures", "gauge", "Profiles currently held in the capture ring.")
	w.Value("hdfe_prof_ring_captures", float64(p.ring.Len()))
	states := p.WatchdogStates()
	w.Header("hdfe_prof_watchdog_firing", "gauge", "1 while the watchdog's condition holds, 0 otherwise.")
	for _, st := range states {
		firing := 0.0
		if st.Firing {
			firing = 1
		}
		w.Value("hdfe_prof_watchdog_firing", firing, "watchdog", st.Name)
	}
	w.Header("hdfe_prof_watchdog_triggers_total", "counter", "Edge-triggered watchdog firings since boot.")
	for _, st := range states {
		w.Value("hdfe_prof_watchdog_triggers_total", float64(st.Triggers), "watchdog", st.Name)
	}
}
