package serve

import (
	"context"
	"sync"
	"testing"
	"time"

	"hdfe/internal/core"
	"hdfe/internal/obs"
	"hdfe/internal/registry"
	"hdfe/internal/synth"
)

// testBatcher builds a batcher over a single-model registry, the shape
// every pre-lifecycle test used. The queue is sized for the suite's
// highest submit concurrency: in production the admission gate keeps
// concurrent submits at or below the queue depth, and these tests
// bypass the gate.
func testBatcher(t *testing.T, dep *core.Deployment, maxBatch int, maxWait time.Duration, m *Metrics) *Batcher {
	t.Helper()
	reg := registry.New()
	model := reg.Adopt(dep, "batcher-test", "", "")
	newModelState(model, Config{}.withDefaults())
	reg.Promote(model)
	return newBatcher(reg, maxBatch, maxWait, 128, m, nil, nil)
}

func TestBatcherScoresMatchDirect(t *testing.T) {
	dep := testDeployment(t, 128)
	b := testBatcher(t, dep, 16, time.Millisecond, nil)
	defer b.Close()

	d := synth.PimaM(7)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			row := d.X[i%len(d.X)]
			got, _, _, err := b.submitTimed(context.Background(), row, obs.TraceContext{})
			if err != nil {
				errs <- err
				return
			}
			if want := dep.Score(row); got != want {
				t.Errorf("row %d: batched %v, direct %v", i, got, want)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestBatcherRespectsMaxBatch(t *testing.T) {
	dep := testDeployment(t, 128)
	m := NewMetrics()
	// A long wait forces every batch to close on size, not time.
	b := testBatcher(t, dep, 4, time.Second, m)
	defer b.Close()

	row := synth.PimaM(7).X[0]
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, _, err := b.submitTimed(context.Background(), row, obs.TraceContext{}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	snap := m.Snapshot()
	if snap.Batches < 32/4 {
		t.Fatalf("%d batches for 32 requests at maxBatch 4", snap.Batches)
	}
	for _, bucket := range snap.BatchSizes {
		switch bucket.Size {
		case "5-8", "9-16", "17-32", "33-64", "65+":
			if bucket.Count != 0 {
				t.Errorf("batch of size %s recorded beyond maxBatch 4", bucket.Size)
			}
		}
	}
}

func TestBatcherSubmitAfterCloseFails(t *testing.T) {
	dep := testDeployment(t, 128)
	b := testBatcher(t, dep, 8, time.Millisecond, nil)
	b.Close()
	b.Close() // idempotent
	if _, _, _, err := b.submitTimed(context.Background(), synth.PimaM(7).X[0], obs.TraceContext{}); err != ErrClosed {
		t.Fatalf("submit after Close: %v, want ErrClosed", err)
	}
}

func TestBatcherSubmitHonoursContext(t *testing.T) {
	dep := testDeployment(t, 128)
	b := testBatcher(t, dep, 8, time.Millisecond, nil)
	defer b.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, _, err := b.submitTimed(ctx, synth.PimaM(7).X[0], obs.TraceContext{}); err != context.Canceled {
		t.Fatalf("submit with cancelled context: %v, want context.Canceled", err)
	}
}

// TestBatcherSubmitTimedReportsStages pins the per-request cost
// breakdown the batch loop hands back: real batch-wait time, amortized
// encode/distance shares, the batch size, and the scoring model's state.
func TestBatcherSubmitTimedReportsStages(t *testing.T) {
	dep := testDeployment(t, 128)
	b := testBatcher(t, dep, 16, time.Millisecond, nil)
	defer b.Close()

	d := synth.PimaM(7)
	var wg sync.WaitGroup
	timings := make(chan BatchTimings, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			row := d.X[i%len(d.X)]
			got, bt, st, err := b.submitTimed(context.Background(), row, obs.TraceContext{})
			if err != nil {
				t.Error(err)
				return
			}
			if want := dep.Score(row); got != want {
				t.Errorf("row %d: timed submit %v, direct %v", i, got, want)
			}
			if st == nil || st.version() != 1 {
				t.Errorf("row %d: scored by model state %v, want version 1", i, st)
			}
			timings <- bt
		}(i)
	}
	wg.Wait()
	close(timings)
	n := 0
	for bt := range timings {
		n++
		if bt.Size < 1 || bt.Size > 16 {
			t.Errorf("batch size %d outside [1, 16]", bt.Size)
		}
		if bt.Wait < 0 || bt.Encode <= 0 || bt.Distance < 0 {
			t.Errorf("timings %+v, want wait>=0, encode>0, distance>=0", bt)
		}
	}
	if n != 32 {
		t.Fatalf("%d timing reports for 32 submits", n)
	}
}

func TestBatcherQueueDepthAndDraining(t *testing.T) {
	dep := testDeployment(t, 128)
	b := testBatcher(t, dep, 8, time.Millisecond, nil)
	if b.Draining() {
		t.Error("fresh batcher reports draining")
	}
	if d := b.QueueDepth(); d != 0 {
		t.Errorf("idle queue depth %d", d)
	}
	b.Close()
	if !b.Draining() {
		t.Error("closed batcher not draining")
	}
}

// TestBatcherCloseDrainsQueued pins the drain guarantee directly at the
// batcher level: every request queued before Close is scored.
func TestBatcherCloseDrainsQueued(t *testing.T) {
	const queued = 48
	dep := testDeployment(t, 128)
	// Huge maxWait: requests pile into one open batch until Close drains.
	b := testBatcher(t, dep, 1024, time.Hour, nil)
	row := synth.PimaM(7).X[0]
	want := dep.Score(row)

	var wg sync.WaitGroup
	scores := make(chan float64, queued)
	errs := make(chan error, queued)
	for i := 0; i < queued; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, _, _, err := b.submitTimed(context.Background(), row, obs.TraceContext{})
			if err != nil {
				errs <- err
				return
			}
			scores <- got
		}()
	}
	// Wait until the batch loop has every request in hand, then Close: the
	// open batch must be scored, not abandoned.
	deadline := time.Now().Add(10 * time.Second)
	for len(b.reqs) > 0 || time.Now().After(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
	b.Close()
	wg.Wait()
	close(scores)
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	n := 0
	for got := range scores {
		n++
		if got != want {
			t.Errorf("drained score %v, want %v", got, want)
		}
	}
	if n != queued {
		t.Fatalf("%d of %d queued requests answered after Close", n, queued)
	}
}
