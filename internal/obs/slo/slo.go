// Package slo computes service-level-objective compliance and
// multi-window burn rates from per-request outcomes, in-process and
// dependency-free.
//
// Two objectives are tracked against one compliance target (e.g.
// 0.999): availability — the fraction of requests answered without a
// server error or an overload shed — and latency — the fraction
// answered within the latency objective. For each, the engine reports
// compliance over four sliding windows (5m, 1h fast; 6h, 3d slow) and
// the burn rate: the ratio of the window's bad fraction to the error
// budget (1 - target). Burn rate 1 spends the budget exactly at the
// sustainable pace; 14.4 exhausts a 30-day budget in ~2 days.
//
// Alerting follows the multi-window multi-burn-rate pattern: a fast
// burn fires when both the 5m and 1h windows burn at >= 14.4x, a slow
// burn when both the 6h and 3d windows burn at >= 1x. Requiring both
// windows suppresses blips (the short window resets fast) while the
// long window stops stale incidents from alerting forever. State
// transitions are edge-triggered through the OnTransition callback, so
// the serving layer logs one line per state change instead of one per
// scrape.
package slo

import (
	"sync"
	"time"
)

// Objective names.
const (
	Availability = "availability"
	Latency      = "latency"
)

// Burn states, ordered by severity.
const (
	StateOK       = "ok"
	StateSlowBurn = "slow_burn"
	StateFastBurn = "fast_burn"
)

// The four sliding windows. The fast pair gates fast-burn, the slow
// pair slow-burn.
var windows = []struct {
	Name string
	Dur  time.Duration
}{
	{"5m", 5 * time.Minute},
	{"1h", time.Hour},
	{"6h", 6 * time.Hour},
	{"3d", 72 * time.Hour},
}

// Burn-rate thresholds for the window pairs.
const (
	FastBurnThreshold = 14.4
	SlowBurnThreshold = 1.0
)

// Config tunes an Engine.
type Config struct {
	// Target is the compliance target shared by both objectives
	// (default 0.999). The error budget is 1 - Target.
	Target float64
	// LatencyObjective is the per-request latency the latency objective
	// holds requests to (default 250ms).
	LatencyObjective time.Duration
	// Now overrides the clock (tests). Default time.Now.
	Now func() time.Time
	// OnTransition fires on every objective state change, with the
	// objective name and the old and new states. Called with the
	// engine's lock held — keep it cheap (a log line).
	OnTransition func(objective, from, to string)
}

// bucket is one minute's outcome tally.
type bucket struct {
	minute int64 // unix minute this bucket currently holds; -1 when unused
	total  uint64
	errs   uint64 // availability violations
	slow   uint64 // latency violations
}

// Engine ingests request outcomes and serves compliance snapshots. One
// mutex guards the ring; Observe is a few adds under it, and the window
// scan runs at most once per second, so scoring-path overhead stays
// trivial next to a single record encode.
type Engine struct {
	target    float64
	latencyMs time.Duration
	now       func() time.Time
	onChange  func(objective, from, to string)

	mu       sync.Mutex
	ring     []bucket // one bucket per minute, 3d + 1 capacity
	lastEval int64    // unix second of the last window evaluation
	state    map[string]string
	snap     Snapshot // cached by evaluate, served by Snapshot
}

// New builds an engine for cfg.
func New(cfg Config) *Engine {
	if cfg.Target <= 0 || cfg.Target >= 1 {
		cfg.Target = 0.999
	}
	if cfg.LatencyObjective <= 0 {
		cfg.LatencyObjective = 250 * time.Millisecond
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	n := int(windows[len(windows)-1].Dur/time.Minute) + 1
	e := &Engine{
		target:    cfg.Target,
		latencyMs: cfg.LatencyObjective,
		now:       cfg.Now,
		onChange:  cfg.OnTransition,
		ring:      make([]bucket, n),
		state:     map[string]string{Availability: StateOK, Latency: StateOK},
	}
	for i := range e.ring {
		e.ring[i].minute = -1
	}
	e.mu.Lock()
	e.evaluate(e.now())
	e.mu.Unlock()
	return e
}

// bad reports an availability violation: server errors and overload
// sheds. 429 and 503 are deliberate load-shedding, but to the client
// they are unavailability all the same — the SLO judges what users
// experienced, not whose fault it was.
func bad(status int) bool { return status >= 500 || status == 429 }

// Observe folds one finished request into the current minute bucket and
// re-evaluates the windows at most once per second.
func (e *Engine) Observe(status int, latency time.Duration) {
	now := e.now()
	minute := now.Unix() / 60
	e.mu.Lock()
	b := &e.ring[int(minute%int64(len(e.ring)))]
	if b.minute != minute {
		*b = bucket{minute: minute}
	}
	b.total++
	if bad(status) {
		b.errs++
	}
	if latency > e.latencyMs {
		b.slow++
	}
	if sec := now.Unix(); sec != e.lastEval {
		e.evaluate(now)
	}
	e.mu.Unlock()
}

// WindowStats is one window's compliance summary.
type WindowStats struct {
	Window            string  `json:"window"`
	Requests          uint64  `json:"requests"`
	Errors            uint64  `json:"errors"`
	Slow              uint64  `json:"slow"`
	Availability      float64 `json:"availability"`
	LatencyCompliance float64 `json:"latency_compliance"`
	AvailabilityBurn  float64 `json:"availability_burn_rate"`
	LatencyBurn       float64 `json:"latency_burn_rate"`
}

// Snapshot is the /debug/slo shape.
type Snapshot struct {
	Target             float64       `json:"target"`
	ErrorBudget        float64       `json:"error_budget"`
	LatencyObjectiveMs float64       `json:"latency_objective_ms"`
	Windows            []WindowStats `json:"windows"`
	AvailabilityState  string        `json:"availability_state"`
	LatencyState       string        `json:"latency_state"`
}

// evaluate recomputes every window from the ring, refreshes the cached
// snapshot, and edge-triggers state transitions. Called under e.mu.
func (e *Engine) evaluate(now time.Time) {
	e.lastEval = now.Unix()
	minute := now.Unix() / 60
	budget := 1 - e.target
	stats := make([]WindowStats, len(windows))
	for i, w := range windows {
		stats[i] = WindowStats{Window: w.Name, Availability: 1, LatencyCompliance: 1}
	}
	for i := range e.ring {
		b := &e.ring[i]
		if b.minute < 0 {
			continue
		}
		age := minute - b.minute
		if age < 0 {
			continue
		}
		for wi, w := range windows {
			if age < int64(w.Dur/time.Minute) {
				stats[wi].Requests += b.total
				stats[wi].Errors += b.errs
				stats[wi].Slow += b.slow
			}
		}
	}
	for i := range stats {
		st := &stats[i]
		if st.Requests == 0 {
			continue
		}
		errFrac := float64(st.Errors) / float64(st.Requests)
		slowFrac := float64(st.Slow) / float64(st.Requests)
		st.Availability = 1 - errFrac
		st.LatencyCompliance = 1 - slowFrac
		st.AvailabilityBurn = errFrac / budget
		st.LatencyBurn = slowFrac / budget
	}
	// Window order is fast → slow: [0]=5m, [1]=1h, [2]=6h, [3]=3d.
	availState := burnState(stats[0].AvailabilityBurn, stats[1].AvailabilityBurn,
		stats[2].AvailabilityBurn, stats[3].AvailabilityBurn)
	latState := burnState(stats[0].LatencyBurn, stats[1].LatencyBurn,
		stats[2].LatencyBurn, stats[3].LatencyBurn)
	e.transition(Availability, availState)
	e.transition(Latency, latState)
	e.snap = Snapshot{
		Target:             e.target,
		ErrorBudget:        budget,
		LatencyObjectiveMs: float64(e.latencyMs) / float64(time.Millisecond),
		Windows:            stats,
		AvailabilityState:  e.state[Availability],
		LatencyState:       e.state[Latency],
	}
}

// burnState classifies one objective from its four window burn rates.
func burnState(b5m, b1h, b6h, b3d float64) string {
	if b5m >= FastBurnThreshold && b1h >= FastBurnThreshold {
		return StateFastBurn
	}
	if b6h >= SlowBurnThreshold && b3d >= SlowBurnThreshold {
		return StateSlowBurn
	}
	return StateOK
}

func (e *Engine) transition(objective, to string) {
	from := e.state[objective]
	if from == to {
		return
	}
	e.state[objective] = to
	if e.onChange != nil {
		e.onChange(objective, from, to)
	}
}

// Snapshot returns the current compliance view, re-evaluating first so
// a quiet service recovers (windows age out) even with no traffic to
// trigger Observe.
func (e *Engine) Snapshot() Snapshot {
	e.mu.Lock()
	e.evaluate(e.now())
	s := e.snap
	s.Windows = append([]WindowStats(nil), e.snap.Windows...)
	e.mu.Unlock()
	return s
}
