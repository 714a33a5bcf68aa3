package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hdfe/internal/chaos"
	"hdfe/internal/synth"
)

// TestOverloadSoak drives the server well past its admission capacity
// with chaos latency injected into the batch stage and pins the whole
// overload contract at once:
//
//   - excess load is shed with 429 and a valid Retry-After (integer
//     seconds >= 1), never an error or a hang;
//   - the batcher queue stays bounded by the configured depth;
//   - every accepted request answers the exact score direct scoring
//     produces — overload degrades availability, never correctness;
//   - the client-timed p99 of accepted requests stays within
//     p99GateMultiple times the run's own admission queueing time;
//   - no goroutines leak once the storm passes and the server closes.
//
// The run is time-capped (~2s of load).
func TestOverloadSoak(t *testing.T) {
	const (
		clients     = 96
		maxInFlight = 32
		soakFor     = 2 * time.Second
		// By Little's law a saturated gate holding maxInFlight requests
		// at an accepted rate λ makes each one wait maxInFlight/λ on
		// average. On a 2-CPU host the client-timed p99 measured 2.5–3.0
		// times that alone, up to 4.6 times with the model and telemetry
		// suites looping alongside, and 3.6–4.0 times under -race; the
		// bound leaves about 1.7x headroom over the worst case. Because
		// the gate time is taken from the same run, a slower host (or
		// the race detector) moves both sides together.
		p99GateMultiple = 8.0
	)
	baseGoroutines := runtime.NumGoroutine()

	dep := testDeployment(t, 128)
	inj := chaos.New(7, chaos.Fault{
		Point: chaos.PointBatch, P: 1, Delay: 2 * time.Millisecond, Jitter: time.Millisecond,
	})
	s := New(dep, Config{
		MaxBatch:       32,
		MaxWait:        time.Millisecond,
		MaxInFlight:    maxInFlight,
		RetryAfter:     1500 * time.Millisecond,
		RequestTimeout: 2 * time.Second,
		Chaos:          inj,
	})
	ts := httptest.NewServer(s.Handler())

	// Precompute expected scores: accepted responses must be bit-identical
	// to direct scoring no matter how hard the server is being squeezed.
	d := synth.PimaM(7)
	want := make(map[int]float64, len(d.X))
	bodies := make(map[int][]byte, len(d.X))
	for i, row := range d.X {
		want[i] = dep.Score(row)
		b, err := json.Marshal(scoreRequest{Features: floats(row...)})
		if err != nil {
			t.Fatal(err)
		}
		bodies[i] = b
	}

	client := ts.Client()
	client.Transport = &http.Transport{
		MaxIdleConns:        clients,
		MaxIdleConnsPerHost: clients,
	}

	var (
		ok, shed, other atomic.Uint64
		maxQueue        atomic.Int64
		wg              sync.WaitGroup
		stop            = make(chan struct{})
		// latencies[c] holds client c's accepted-request round trips.
		latencies = make([][]time.Duration, clients)
	)
	// One sampler goroutine watches the queue-depth gauge during the storm.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
				if d := int64(s.batcher.QueueDepth()); d > maxQueue.Load() {
					maxQueue.Store(d)
				}
			}
		}
	}()

	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; ; i += clients {
				select {
				case <-stop:
					return
				default:
				}
				idx := i % len(d.X)
				sent := time.Now()
				resp, body := postJSON(t, client, ts.URL+"/v1/score", json.RawMessage(bodies[idx]))
				switch resp.StatusCode {
				case http.StatusOK:
					latencies[c] = append(latencies[c], time.Since(sent))
					ok.Add(1)
					var sr scoreResponse
					if err := json.Unmarshal(body, &sr); err != nil {
						t.Error(err)
						return
					}
					if sr.Score != want[idx] {
						t.Errorf("row %d: score %v under overload, want %v", idx, sr.Score, want[idx])
						return
					}
				case http.StatusTooManyRequests:
					shed.Add(1)
					ra := resp.Header.Get("Retry-After")
					secs, err := strconv.Atoi(ra)
					if err != nil || secs < 1 {
						t.Errorf("429 Retry-After %q, want integer seconds >= 1", ra)
						return
					}
				default:
					other.Add(1)
					t.Errorf("status %d under overload: %s", resp.StatusCode, body)
					return
				}
			}
		}(c)
	}
	time.Sleep(soakFor)
	close(stop)
	wg.Wait()
	elapsed := time.Since(start)

	accepted, rejected := ok.Load(), shed.Load()
	var all []time.Duration
	for _, l := range latencies {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	var p99 time.Duration
	if len(all) > 0 {
		p99 = all[int(math.Ceil(0.99*float64(len(all))))-1]
	}
	gate := time.Duration(float64(maxInFlight) / (float64(accepted) / elapsed.Seconds()) * float64(time.Second))
	t.Logf("soak: %d accepted, %d shed, peak queue %d, client p99 %v, gate time %v (ratio %.2f)",
		accepted, rejected, maxQueue.Load(), p99, gate, float64(p99)/float64(gate))
	if accepted == 0 {
		t.Fatal("no requests accepted during the soak")
	}
	if rejected == 0 {
		t.Fatalf("no requests shed at %d clients against a %d-record budget", clients, maxInFlight)
	}
	if other.Load() != 0 {
		t.Fatalf("%d non-200/429 responses under overload", other.Load())
	}

	m := s.Metrics().Snapshot()
	if m.ShedQueueFull != rejected {
		t.Errorf("hdfe_shed_total{queue_full} = %d, clients saw %d rejections", m.ShedQueueFull, rejected)
	}
	// The admission gate is sized at or below the queue depth, so the
	// queue can never hold more than the admitted budget.
	if peak := maxQueue.Load(); peak > maxInFlight {
		t.Errorf("queue depth peaked at %d, admission budget is %d", peak, maxInFlight)
	}
	if bound := time.Duration(p99GateMultiple * float64(gate)); p99 > bound {
		t.Errorf("accepted-request p99 %v under overload, bound %v (%.0fx the %v gate time)",
			p99, bound, p99GateMultiple, gate)
	}

	// Teardown must release everything: server, listener, then the
	// goroutine count settles back to the pre-test baseline.
	ts.Close()
	s.Close()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseGoroutines+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseGoroutines+2 {
		buf := make([]byte, 1<<16)
		t.Fatalf("goroutine leak after soak: %d now vs %d at start\n%s",
			n, baseGoroutines, buf[:runtime.Stack(buf, true)])
	}
}
