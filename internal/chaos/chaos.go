// Package chaos is the fault-injection seam for the hdfe serving stack.
//
// An Injector holds a set of Faults, each bound to a named injection
// Point that serving code consults at the moments worth breaking and
// that no test can break from outside: the scoring stage, the
// shadow-scoring worker, profile captures and audit writes. (A failed
// artifact load or span export needs no point: a missing or corrupt
// artifact, or a collector that answers 5xx or stalls, fails the same
// code for real.) A consultation draws from a deterministic rng.Source
// (seeded at construction, see internal/rng), so a chaos run replays bit
// for bit given the same consultation order — which is what lets the
// regression suite assert exact shed counts instead of flaky
// probabilistic ones.
//
// Production builds pay nothing: the zero configuration is a nil
// *Injector, and every method is nil-safe, so an uninstrumented server
// spends one predictable branch per injection point. Injection is enabled
// only when cmd/hdserve is started with -chaos-spec (or a test installs
// an Injector directly via serve.Config.Chaos).
package chaos

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hdfe/internal/rng"
)

// Point names one injection site in the serving stack.
type Point uint8

const (
	// PointScore fires once per scoring request on either route, after
	// validation and at the start of the encode stage, before the
	// deadline check — models a stalled scoring stage.
	PointScore Point = iota
	// PointShadow fires in the shadow worker before it re-scores a
	// batch — models a slow canary backing up the lossy queue.
	PointShadow
	// PointProf fires in the continuous profiler before each profile
	// capture — models a capture failure (a concurrent profiler holding
	// the CPU profile slot, an exhausted ring). Scoring must never
	// notice: captures run on the profiler's own goroutine and a failed
	// capture only increments a counter.
	PointProf
	// PointAudit fires in the audit-log worker before each event is
	// written — models a failing or stalled disk under the decision log.
	// Scoring must never notice: the audit queue is lossy and writes
	// happen on the worker goroutine; a failed write only drops the
	// event and increments hdfe_audit_dropped_total.
	PointAudit

	numPoints
)

var pointNames = [numPoints]string{"score", "shadow", "prof", "audit"}

// String returns the point's spec name.
func (p Point) String() string {
	if int(p) < int(numPoints) {
		return pointNames[p]
	}
	return "unknown"
}

// ParsePoint resolves a spec name to its Point.
func ParsePoint(s string) (Point, error) {
	for i, n := range pointNames {
		if s == n {
			return Point(i), nil
		}
	}
	return 0, fmt.Errorf("chaos: unknown injection point %q (want score|shadow|prof|audit)", s)
}

// Fault is one configured failure mode at a Point. Each consultation of
// the point rolls P independently; when the roll fires, the consultation
// sleeps Delay plus a uniform extra in [0, Jitter), and — if Err is
// non-empty — reports an injected error after the sleep.
type Fault struct {
	Point  Point
	P      float64       // firing probability per consultation (<=0 never, >=1 always)
	Delay  time.Duration // base injected latency
	Jitter time.Duration // extra uniform-random latency in [0, Jitter)
	Err    string        // non-empty: the consultation also fails with this message
}

// Injector evaluates registered faults at each consultation. Safe for
// concurrent use; the rng draw is serialized under a mutex but the
// injected sleep happens outside it, so a long stall at one point never
// blocks consultations at another.
type Injector struct {
	mu     sync.Mutex
	src    *rng.Source
	faults [numPoints][]Fault
	fired  [numPoints]atomic.Uint64
}

// New builds an injector over the given faults, drawing all probability
// rolls and jitter from a generator seeded with seed.
func New(seed uint64, faults ...Fault) *Injector {
	in := &Injector{src: rng.New(seed)}
	for _, f := range faults {
		in.faults[f.Point] = append(in.faults[f.Point], f)
	}
	return in
}

// Parse builds an injector from a spec string:
//
//	point:key=val,key=val;point:key=val...
//
// where point is score|shadow|prof|audit and keys are p
// (probability, default 1), delay and jitter (Go durations, default 0),
// and err (an error message; the consultation fails with it). Example:
//
//	score:p=0.2,delay=5ms,jitter=20ms;audit:err=injected disk failure
//
// An empty spec returns a nil injector — chaos disabled.
func Parse(spec string, seed uint64) (*Injector, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var faults []Fault
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		name, rest, ok := strings.Cut(clause, ":")
		if !ok {
			return nil, fmt.Errorf("chaos: clause %q missing point (want point:key=val,...)", clause)
		}
		pt, err := ParsePoint(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		f := Fault{Point: pt, P: 1}
		for _, kv := range strings.Split(rest, ",") {
			kv = strings.TrimSpace(kv)
			if kv == "" {
				continue
			}
			key, val, ok := strings.Cut(kv, "=")
			if !ok {
				return nil, fmt.Errorf("chaos: %s: bad option %q (want key=val)", pt, kv)
			}
			switch key {
			case "p":
				f.P, err = strconv.ParseFloat(val, 64)
				if err != nil {
					return nil, fmt.Errorf("chaos: %s: bad probability %q: %v", pt, val, err)
				}
			case "delay":
				f.Delay, err = time.ParseDuration(val)
				if err != nil {
					return nil, fmt.Errorf("chaos: %s: bad delay %q: %v", pt, val, err)
				}
			case "jitter":
				f.Jitter, err = time.ParseDuration(val)
				if err != nil {
					return nil, fmt.Errorf("chaos: %s: bad jitter %q: %v", pt, val, err)
				}
			case "err":
				if val == "" {
					return nil, fmt.Errorf("chaos: %s: empty err message", pt)
				}
				f.Err = val
			default:
				return nil, fmt.Errorf("chaos: %s: unknown option %q (want p|delay|jitter|err)", pt, key)
			}
		}
		if f.Delay < 0 || f.Jitter < 0 {
			return nil, fmt.Errorf("chaos: %s: negative delay/jitter", pt)
		}
		faults = append(faults, f)
	}
	return New(seed, faults...), nil
}

// Inject consults every fault registered at pt: faults whose probability
// roll fires contribute their latency (slept here, outside the injector
// lock) and the first fired fault carrying an error message fails the
// consultation after the sleep. A nil injector, or a point with no
// faults, returns immediately with nil.
func (in *Injector) Inject(pt Point) error {
	if in == nil {
		return nil
	}
	faults := in.faults[pt]
	if len(faults) == 0 {
		return nil
	}
	var (
		delay  time.Duration
		errMsg string
	)
	in.mu.Lock()
	for _, f := range faults {
		if f.P <= 0 {
			continue
		}
		if f.P < 1 && in.src.Float64() >= f.P {
			continue
		}
		in.fired[pt].Add(1)
		delay += f.Delay
		if f.Jitter > 0 {
			delay += time.Duration(in.src.Uint64n(uint64(f.Jitter)))
		}
		if errMsg == "" {
			errMsg = f.Err
		}
	}
	in.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	if errMsg != "" {
		return errors.New("chaos: injected: " + errMsg)
	}
	return nil
}

// Fired reports how many consultations of pt have fired at least one
// fault — the assertion handle for deterministic chaos tests. Nil-safe.
func (in *Injector) Fired(pt Point) uint64 {
	if in == nil {
		return 0
	}
	return in.fired[pt].Load()
}

// String summarizes the configured faults, for the boot log.
func (in *Injector) String() string {
	if in == nil {
		return "disabled"
	}
	var b strings.Builder
	for p := Point(0); p < numPoints; p++ {
		for _, f := range in.faults[p] {
			if b.Len() > 0 {
				b.WriteByte(';')
			}
			fmt.Fprintf(&b, "%s:p=%g,delay=%s", p, f.P, f.Delay)
			if f.Jitter > 0 {
				fmt.Fprintf(&b, ",jitter=%s", f.Jitter)
			}
			if f.Err != "" {
				fmt.Fprintf(&b, ",err=%s", f.Err)
			}
		}
	}
	if b.Len() == 0 {
		return "no faults"
	}
	return b.String()
}
