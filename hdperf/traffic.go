package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// warmup runs the workload's traffic before the window opens, so
	// connections, pools and the server's heap have settled when it does.
	warmup = 2 * time.Second

	pacedRate  = 250                    // pima-paced-rw: scored records per second
	labelEvery = 2                      // pima-paced-rw: one label per this many scored records
	labelLag   = 100 * time.Millisecond // pima-paced-rw: a label is due this long after its record

	cohortBatch  = 64 // cohorts: records per /v1/score/batch request
	labelBatches = 16 // cohorts: batches labelled after the window, one request each

	// maxSenders caps sender goroutines, each with one connection: the
	// open-loop senders of pima-paced-rw, the closed-loop clients of the
	// cohorts.
	maxSenders = 2

	// windowSlice is the target length of the slices the window is cut
	// into. End-to-end metrics are medians over slices, so a burst of host
	// steal spoils a few slices rather than the run.
	windowSlice = 2 * time.Second

	// traceSlice alternates the traced run's window between slices with
	// client spans on and off, so the spans' own cost is their difference.
	traceSlice = 500 * time.Millisecond

	lateLimit = time.Millisecond // a send starting later than this behind schedule counts as late
)

// senders bounds sender goroutines, and with them connections, by the
// CPU count, so the generator never outnumbers the server's CPUs.
func senders(want int) int { return max(1, min(want, runtime.NumCPU())) }

// tally counts operations against the output checks.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	reported  int
}

// op records one operation; a non-nil err marks it failed. The first few
// failures are printed, so a failed run can be diagnosed.
func (t *tally) op(err error) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err == nil {
		return true
	}
	t.failed++
	if t.reported < 5 {
		t.reported++
		fmt.Fprintf(os.Stderr, "hdperf: failed operation: %v\n", err)
	}
	return false
}

// traffic is what one workload's requests produced.
type traffic struct {
	edges      []edge      // the window's slice edges, one more than slices
	reqMs      [][]float64 // latencies of scoring requests, per window slice
	feedbackMs [][]float64 // latencies of label requests: paced, per window slice; cohorts, one group after the window
	lateMs     []float64   // paced: how late each send inside the window started
	tracedMs   []float64   // traced run: scoring latencies in slices with client spans on
	untracedMs []float64   // traced run: the same in slices with spans off
	scored     int         // records in 2xx scoring responses, whole run
	labels     int         // labels sent, whole run
	matched    int         // labels the server joined to a prediction
}

// loadRun is one traffic run: its inputs, the server it drives and what it
// records into.
type loadRun struct {
	cfg  config
	srv  *server
	in   inputs
	want []float64 // in-process scores of in.rows
	tr   *tracer
	tl   *tally
}

// slices is how many slices the window is cut into.
func (r *loadRun) slices() int { return max(1, int(r.cfg.window/windowSlice)) }

// slot is the window slice a request at offset from the traffic start
// falls in, or -1 outside the window.
func (r *loadRun) slot(offset time.Duration) int {
	if offset < warmup || offset >= warmup+r.cfg.window {
		return -1
	}
	return int(time.Duration(r.slices()) * (offset - warmup) / r.cfg.window)
}

// readEdges reads the server at every slice edge of the window, waiting
// for each.
func (r *loadRun) readEdges(ctx context.Context, start time.Time) ([]edge, error) {
	n := r.slices()
	es := make([]edge, n+1)
	for i := range es {
		e, err := r.srv.edgeAt(ctx, start.Add(warmup+time.Duration(i)*r.cfg.window/time.Duration(n)))
		if err != nil {
			return nil, err
		}
		es[i] = e
	}
	return es, nil
}

// traced reports whether a request at offset from the traffic start falls
// in a slice of the window with client spans on.
func (r *loadRun) traced(offset time.Duration) bool {
	return r.tr != nil && r.slot(offset) >= 0 && int((offset-warmup)/traceSlice)%2 == 1
}

// paced drives pima-paced-rw: an open loop of single-record scores at
// pacedRate, with a label for every labelEvery-th record labelLag later.
func (r *loadRun) paced(ctx context.Context) (traffic, error) {
	bodies := make([][]byte, len(r.in.rows))
	for i, row := range r.in.rows {
		bodies[i] = scoreBody(row)
	}
	evs := pacedSchedule(pacedRate, warmup+r.cfg.window, labelLag, labelEvery)
	nScores := 0
	for _, ev := range evs {
		if !ev.feedback {
			nScores++
		}
	}
	// ids[n] is written before ready[n] closes; a label waits on it.
	ids := make([]string, nScores)
	ready := make([]chan struct{}, nScores)
	for i := range ready {
		ready[i] = make(chan struct{})
	}
	posters := make([]*poster, senders(maxSenders))
	for i := range posters {
		posters[i] = newPoster(r.srv.base)
		defer posters[i].c.CloseIdleConnections()
	}
	var scored, labels, matched atomic.Int64
	send := func(w int, ev event) bool {
		row := ev.n % len(r.in.rows)
		if r.traced(ev.due) {
			name := "client.score"
			if ev.feedback {
				name = "client.feedback"
			}
			defer r.tr.end(r.tr.start(name, 0), 1)
		}
		if ev.feedback {
			select {
			case <-ready[ev.n]:
			case <-ctx.Done():
				return false
			}
			if ids[ev.n] == "" {
				return false // its record failed and was counted there
			}
			labels.Add(1)
			var fr feedbackResponse
			err := posters[w].post(ctx, "/v1/feedback", labelBody(ids[ev.n:ev.n+1], r.in.labels[row:row+1]), &fr)
			if err == nil && fr.Matched != 1 {
				err = fmt.Errorf("label for %s: %d matched, want 1", ids[ev.n], fr.Matched)
			}
			matched.Add(int64(fr.Matched))
			return r.tl.op(err)
		}
		defer close(ready[ev.n])
		var sr scoreResponse
		err := posters[w].post(ctx, "/v1/score", bodies[row], &sr)
		if err == nil {
			scored.Add(1)
			if err = checkScore(sr.Score, r.want[row], row); err == nil {
				ids[ev.n] = sr.RequestID
			}
		}
		return r.tl.op(err)
	}

	start := time.Now()
	var out []outcome
	done := make(chan struct{})
	go func() {
		defer close(done)
		out = runOpenLoop(ctx, wallClock{}, start, evs, len(posters), send)
	}()
	edges, err := r.readEdges(ctx, start)
	<-done
	if err != nil {
		return traffic{}, err
	}
	t := traffic{edges: edges, reqMs: make([][]float64, r.slices())}
	t.feedbackMs = make([][]float64, r.slices())
	t.scored, t.labels, t.matched = int(scored.Load()), int(labels.Load()), int(matched.Load())
	for i, ev := range evs {
		k := r.slot(ev.due)
		if k < 0 {
			continue
		}
		ms := float64(out[i].latency) / 1e6
		t.lateMs = append(t.lateMs, float64(out[i].late)/1e6)
		switch {
		case ev.feedback:
			t.feedbackMs[k] = append(t.feedbackMs[k], ms)
		case r.traced(ev.due):
			t.reqMs[k] = append(t.reqMs[k], ms)
			t.tracedMs = append(t.tracedMs, ms)
		default:
			t.reqMs[k] = append(t.reqMs[k], ms)
			t.untracedMs = append(t.untracedMs, ms)
		}
	}
	return t, nil
}

// sentBatch is a scored batch kept for the cohorts' label pass.
type sentBatch struct {
	ids   []string
	first int // cohort row of ids[0]
}

// cohort drives pima-cohort and sylhet-cohort: maxSenders closed-loop
// clients posting cohortBatch-record batches, then one client labelling
// its last labelBatches batches.
func (r *loadRun) cohort(ctx context.Context) (traffic, error) {
	n := len(r.in.rows)
	// Batch b starts at row b·cohortBatch mod n; the sequence repeats
	// after n/gcd(n, cohortBatch) batches, so those are all the bodies.
	nb := n / gcd(n, cohortBatch)
	bodies := make([][]byte, nb)
	for b := range bodies {
		bodies[b] = batchBody(r.in.rows, b*cohortBatch%n, cohortBatch)
	}
	posters := make([]*poster, senders(maxSenders))
	for i := range posters {
		posters[i] = newPoster(r.srv.base)
		defer posters[i].c.CloseIdleConnections()
	}
	var recent []sentBatch // client 0's last labelBatches batches, for the label pass
	var scored atomic.Int64
	start := time.Now()
	send := func(c, iter int) {
		if offset := time.Since(start); r.traced(offset) {
			defer r.tr.end(r.tr.start("client.score_batch", 0), cohortBatch)
		}
		b := (iter*len(posters) + c) % nb
		first := b * cohortBatch % n
		var br batchResponse
		err := posters[c].post(ctx, "/v1/score/batch", bodies[b], &br)
		if err == nil {
			scored.Add(int64(len(br.Scores)))
			err = checkBatch(br, r.want, first, cohortBatch)
		}
		if r.tl.op(err) && c == 0 {
			recent = append(recent, sentBatch{ids: br.RequestIDs, first: first})
			if len(recent) > labelBatches {
				recent = recent[1:]
			}
		}
	}

	var samples []closedSample
	done := make(chan struct{})
	go func() {
		defer close(done)
		samples = runClosedLoop(ctx, wallClock{}, start.Add(warmup+r.cfg.window), len(posters), send)
	}()
	edges, err := r.readEdges(ctx, start)
	<-done
	if err != nil {
		return traffic{}, err
	}
	t := traffic{edges: edges, reqMs: make([][]float64, r.slices())}
	t.scored = int(scored.Load())
	for _, s := range samples {
		offset := s.start.Sub(start)
		k := r.slot(offset)
		if k < 0 {
			continue
		}
		ms := float64(s.latency) / 1e6
		t.reqMs[k] = append(t.reqMs[k], ms)
		if r.traced(offset) {
			t.tracedMs = append(t.tracedMs, ms)
		} else {
			t.untracedMs = append(t.untracedMs, ms)
		}
	}

	// The label pass: one feedback request per recent batch, labelling
	// all its records, sent one after another. Every ID is recent enough
	// to still be joinable.
	var labelMs []float64
	for _, sb := range recent {
		if ctx.Err() != nil {
			return traffic{}, ctx.Err()
		}
		labels := make([]int, len(sb.ids))
		for k := range labels {
			labels[k] = r.in.labels[(sb.first+k)%n]
		}
		body := labelBody(sb.ids, labels)
		sp := r.tr.start("client.feedback", 0)
		t0 := time.Now()
		var fr feedbackResponse
		err := posters[0].post(ctx, "/v1/feedback", body, &fr)
		labelMs = append(labelMs, float64(time.Since(t0))/1e6)
		r.tr.end(sp, len(labels))
		if err == nil && fr.Matched != len(labels) {
			err = fmt.Errorf("labels for batch at row %d: %d matched, want %d", sb.first, fr.Matched, len(labels))
		}
		t.labels += len(labels)
		t.matched += fr.Matched
		r.tl.op(err)
	}
	t.feedbackMs = [][]float64{labelMs}
	return t, nil
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
