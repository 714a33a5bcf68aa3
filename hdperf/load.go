package main

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// clock is the time source of the load generators; tests substitute a
// fake one.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// event is one scheduled open-loop request.
type event struct {
	due      time.Duration // offset from the schedule's start
	feedback bool          // a label for record n; otherwise the score of record n
	n        int           // index of the scored record in the stream
}

// pacedSchedule is the open-loop request list: scores at rate per second
// for length, and for every every-th scored record a label due lag after
// it. It is sorted by due time.
func pacedSchedule(rate float64, length, lag time.Duration, every int) []event {
	period := time.Duration(float64(time.Second) / rate)
	n := int(length / period)
	evs := make([]event, 0, n+n/every+1)
	for i := 0; i < n; i++ {
		due := time.Duration(i) * period
		evs = append(evs, event{due: due, n: i})
		if i%every == 0 {
			evs = append(evs, event{due: due + lag, feedback: true, n: i})
		}
	}
	sort.SliceStable(evs, func(a, b int) bool { return evs[a].due < evs[b].due })
	return evs
}

// outcome is how one open-loop request went.
type outcome struct {
	latency time.Duration // completion minus due time
	late    time.Duration // send start minus due time
	ok      bool
}

// runOpenLoop sends evs on schedule from start with workers senders and
// returns one outcome per event. A sender takes the next unsent event,
// waits for its due time and runs send. Latency runs from the due time,
// so a stall that holds up later sends counts against them, and late
// records how far behind schedule each send started. It stops taking
// events once ctx is done.
func runOpenLoop(ctx context.Context, clk clock, start time.Time, evs []event, workers int, send func(worker int, ev event) bool) []outcome {
	out := make([]outcome, len(evs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= len(evs) {
					return
				}
				due := start.Add(evs[i].due)
				if d := due.Sub(clk.Now()); d > 0 {
					clk.Sleep(d)
				}
				sent := clk.Now()
				ok := send(w, evs[i])
				out[i] = outcome{latency: clk.Now().Sub(due), late: sent.Sub(due), ok: ok}
			}
		}()
	}
	wg.Wait()
	return out
}

// closedSample is one closed-loop request.
type closedSample struct {
	start   time.Time
	latency time.Duration
}

// runClosedLoop runs clients senders back to back until end: each sends
// its next request only when the previous one has completed.
func runClosedLoop(ctx context.Context, clk clock, end time.Time, clients int, send func(client, iter int)) []closedSample {
	per := make([][]closedSample, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; ctx.Err() == nil; iter++ {
				t0 := clk.Now()
				if !t0.Before(end) {
					return
				}
				send(c, iter)
				per[c] = append(per[c], closedSample{start: t0, latency: clk.Now().Sub(t0)})
			}
		}()
	}
	wg.Wait()
	var all []closedSample
	for _, s := range per {
		all = append(all, s...)
	}
	return all
}
