package slo

import (
	"sync"
	"testing"
	"time"
)

// fakeClock is a settable Config.Now.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

type change struct{ objective, from, to string }

func newTestEngine(target float64, objective time.Duration) (*Engine, *fakeClock, *[]change) {
	clk := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	var log []change
	e := New(Config{
		Target:           target,
		LatencyObjective: objective,
		Now:              clk.now,
		OnTransition: func(obj, from, to string) {
			log = append(log, change{obj, from, to})
		},
	})
	return e, clk, &log
}

func TestEngineDefaults(t *testing.T) {
	e := New(Config{})
	s := e.Snapshot()
	if s.Target != 0.999 || s.LatencyObjectiveMs != 250 {
		t.Fatalf("defaults: target=%v objective=%vms", s.Target, s.LatencyObjectiveMs)
	}
	if s.AvailabilityState != StateOK || s.LatencyState != StateOK {
		t.Errorf("fresh engine states %s/%s, want ok/ok", s.AvailabilityState, s.LatencyState)
	}
	if len(s.Windows) != 4 {
		t.Fatalf("%d windows, want 4", len(s.Windows))
	}
	for _, w := range s.Windows {
		if w.Availability != 1 || w.LatencyCompliance != 1 || w.AvailabilityBurn != 0 {
			t.Errorf("empty window %s not fully compliant: %+v", w.Window, w)
		}
	}
}

// TestFastBurnThenRecovery drives the acceptance scenario end to end on
// a fake clock: a deterministic error spike trips fast_burn, traffic
// going clean decays it through slow_burn, and aging past the 3d window
// lands back at ok — each transition edge-triggered exactly once.
func TestFastBurnThenRecovery(t *testing.T) {
	e, clk, log := newTestEngine(0.999, 250*time.Millisecond)

	// 2% server errors: burn 0.02/0.001 = 20x >= 14.4 in every window.
	// Spread over 2 minutes; advance 1s per batch so evaluate() runs.
	for i := 0; i < 100; i++ {
		status := 200
		if i%50 == 0 {
			status = 500
		}
		e.Observe(status, 10*time.Millisecond)
		clk.advance(time.Second)
	}
	s := e.Snapshot()
	if s.AvailabilityState != StateFastBurn {
		t.Fatalf("availability state %s after 2%% errors, want fast_burn", s.AvailabilityState)
	}
	if s.LatencyState != StateOK {
		t.Errorf("latency state %s with all-fast requests, want ok", s.LatencyState)
	}
	if burn := s.Windows[0].AvailabilityBurn; burn < FastBurnThreshold {
		t.Errorf("5m burn %.1f below the fast threshold", burn)
	}

	// Past the fast pair (1h) but inside the slow pair: errors still in
	// the 6h/3d windows, so the incident decays to slow_burn, not ok.
	clk.advance(2 * time.Hour)
	if s := e.Snapshot(); s.AvailabilityState != StateSlowBurn {
		t.Fatalf("availability state %s 2h after the spike, want slow_burn", s.AvailabilityState)
	}

	// Past the 3d window: everything ages out.
	clk.advance(73 * time.Hour)
	s = e.Snapshot()
	if s.AvailabilityState != StateOK {
		t.Fatalf("availability state %s after 3d, want ok", s.AvailabilityState)
	}
	if s.Windows[3].Requests != 0 {
		t.Errorf("3d window still holds %d requests after aging out", s.Windows[3].Requests)
	}

	want := []change{
		{Availability, StateOK, StateFastBurn},
		{Availability, StateFastBurn, StateSlowBurn},
		{Availability, StateSlowBurn, StateOK},
	}
	if len(*log) != len(want) {
		t.Fatalf("transitions %+v, want %+v", *log, want)
	}
	for i, c := range want {
		if (*log)[i] != c {
			t.Errorf("transition %d: %+v, want %+v", i, (*log)[i], c)
		}
	}
}

// TestLatencyObjectiveIndependent pins that slow-but-successful traffic
// burns the latency budget without touching availability.
func TestLatencyObjectiveIndependent(t *testing.T) {
	e, clk, _ := newTestEngine(0.999, 100*time.Millisecond)
	for i := 0; i < 100; i++ {
		d := 10 * time.Millisecond
		if i%10 == 0 { // 10% over objective: burn 100x
			d = 400 * time.Millisecond
		}
		e.Observe(200, d)
		clk.advance(time.Second)
	}
	s := e.Snapshot()
	if s.LatencyState != StateFastBurn {
		t.Errorf("latency state %s with 10%% slow requests, want fast_burn", s.LatencyState)
	}
	if s.AvailabilityState != StateOK {
		t.Errorf("availability state %s with all-200 traffic, want ok", s.AvailabilityState)
	}
}

// TestShedsCountAgainstAvailability pins the user-experience stance:
// 429 sheds are unavailability even though they are deliberate.
func TestShedsCountAgainstAvailability(t *testing.T) {
	e, clk, _ := newTestEngine(0.999, 250*time.Millisecond)
	for i := 0; i < 50; i++ {
		e.Observe(429, time.Millisecond)
		clk.advance(time.Second)
	}
	if s := e.Snapshot(); s.AvailabilityState != StateFastBurn {
		t.Errorf("availability state %s under pure shedding, want fast_burn", s.AvailabilityState)
	}
}

// TestBurnBelowThresholdStaysOK pins the threshold edge: burning the
// budget at under 1x never alerts.
func TestBurnBelowThresholdStaysOK(t *testing.T) {
	e, clk, log := newTestEngine(0.99, 250*time.Millisecond) // 1% budget
	// 1 error in 200 = 0.5% bad: burn 0.5x, under even the slow threshold.
	// The error lands mid-run — a window's burn is a fraction of its
	// sample, so an error as the very first request would briefly burn
	// at 100x.
	for i := 0; i < 200; i++ {
		status := 200
		if i == 100 {
			status = 500
		}
		e.Observe(status, time.Millisecond)
		clk.advance(time.Second)
	}
	if s := e.Snapshot(); s.AvailabilityState != StateOK {
		t.Errorf("availability state %s at 0.5x burn, want ok", s.AvailabilityState)
	}
	if len(*log) != 0 {
		t.Errorf("transitions fired at sub-threshold burn: %+v", *log)
	}
}

// TestDeterministicReplay pins that the same observation sequence on the
// same clock produces identical snapshots — the property the serve-level
// chaos tests rely on.
func TestDeterministicReplay(t *testing.T) {
	run := func() Snapshot {
		e, clk, _ := newTestEngine(0.999, 250*time.Millisecond)
		for i := 0; i < 300; i++ {
			status := 200
			switch {
			case i%37 == 0:
				status = 500
			case i%53 == 0:
				status = 429
			}
			e.Observe(status, time.Duration(i%400)*time.Millisecond)
			clk.advance(time.Second)
		}
		return e.Snapshot()
	}
	a, b := run(), run()
	if a.AvailabilityState != b.AvailabilityState || a.LatencyState != b.LatencyState {
		t.Fatalf("states differ across identical runs: %+v vs %+v", a, b)
	}
	for i := range a.Windows {
		if a.Windows[i] != b.Windows[i] {
			t.Errorf("window %s differs: %+v vs %+v", a.Windows[i].Window, a.Windows[i], b.Windows[i])
		}
	}
}
