package main

import (
	"context"
	"sync"
	"testing"
	"time"
)

// fakeClock advances only when slept on or when a test request takes
// time.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Sleep(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	ms := time.Millisecond
	clk := &fakeClock{now: time.Unix(0, 0)}
	start := clk.Now().Add(5 * ms) // the first send waits 5ms for its due time
	evs := []event{{due: 0}, {due: 10 * ms}, {due: 20 * ms}, {due: 30 * ms}}
	// The first request stalls for 25ms; the others take 1ms.
	service := []time.Duration{25 * ms, ms, ms, ms}
	var sent []time.Time
	out := runOpenLoop(context.Background(), clk, start, evs, 1, func(_ int, ev event) bool {
		sent = append(sent, clk.Now())
		clk.Sleep(service[len(sent)-1])
		return true
	})
	want := []outcome{
		{latency: 25 * ms, late: 0, ok: true},       // sent on time at 5ms, done at 30ms
		{latency: 16 * ms, late: 15 * ms, ok: true}, // due 15ms, sent 30ms behind the stall, done 31ms
		{latency: 7 * ms, late: 6 * ms, ok: true},   // due 25ms, sent 31ms, done 32ms
		{latency: ms, late: 0, ok: true},            // due 35ms: the sender waits 3ms, then sends on time
	}
	for i := range want {
		if out[i] != want[i] {
			t.Errorf("event %d: %+v, want %+v", i, out[i], want[i])
		}
	}
	if got, want := sent[3], start.Add(30*ms); !got.Equal(want) {
		t.Errorf("last send at %v, want its due time %v", got, want)
	}
}

func TestOpenLoopStopsOnCancel(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	ctx, cancel := context.WithCancel(context.Background())
	evs := pacedSchedule(100, time.Second, 0, 1)
	calls := 0
	runOpenLoop(ctx, clk, clk.Now(), evs, 1, func(int, event) bool {
		calls++
		if calls == 3 {
			cancel()
		}
		return true
	})
	if calls != 3 {
		t.Errorf("%d sends after cancelling at the third, want 3", calls)
	}
}

func TestPacedSchedule(t *testing.T) {
	evs := pacedSchedule(250, time.Second, 100*time.Millisecond, 2)
	scores, labels := 0, map[int]time.Duration{}
	due := map[int]time.Duration{}
	for i, ev := range evs {
		if i > 0 && ev.due < evs[i-1].due {
			t.Fatalf("event %d due %v before event %d at %v", i, ev.due, i-1, evs[i-1].due)
		}
		if ev.feedback {
			labels[ev.n] = ev.due
		} else {
			scores++
			due[ev.n] = ev.due
		}
	}
	if scores != 250 {
		t.Errorf("%d scores in 1s at 250/s, want 250", scores)
	}
	if len(labels) != 125 {
		t.Errorf("%d labels for every second of 250 records, want 125", len(labels))
	}
	for n, d := range labels {
		if n%2 != 0 {
			t.Errorf("label for odd record %d", n)
		}
		if d-due[n] != 100*time.Millisecond {
			t.Errorf("label for record %d due %v after it, want 100ms", n, d-due[n])
		}
	}
}

func TestClosedLoopSendsBackToBack(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	end := clk.Now().Add(10 * time.Millisecond)
	samples := runClosedLoop(context.Background(), clk, end, 1, func(_, iter int) {
		clk.Sleep(3 * time.Millisecond)
	})
	// Sends start at 0, 3, 6 and 9ms; the one due at 12ms is past the end.
	if len(samples) != 4 {
		t.Fatalf("%d requests, want 4", len(samples))
	}
	for i, s := range samples {
		if got := s.start.Sub(time.Unix(0, 0)); got != time.Duration(3*i)*time.Millisecond || s.latency != 3*time.Millisecond {
			t.Errorf("request %d started at %v taking %v, want %v and 3ms", i, got, s.latency, time.Duration(3*i)*time.Millisecond)
		}
	}
}
