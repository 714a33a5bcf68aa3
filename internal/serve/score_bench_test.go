package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hdfe/internal/synth"
)

// BenchmarkScoreConcurrent measures single-record /v1/score throughput
// under concurrent load: at least 64 goroutines, each on its own
// keep-alive connection, post Pima M records to a server at the default
// Config with a D = 10,000 model. Every response is checked against
// Deployment.Score under Float64bits. It reports records/s and the
// client-timed p50 and p99 round trips.
//
//	go test ./internal/serve -run '^$' -bench ScoreConcurrent -benchtime 20000x
func BenchmarkScoreConcurrent(b *testing.B) { benchScoreConcurrent(b, false) }

// BenchmarkScoreConcurrentShadow is BenchmarkScoreConcurrent with a
// second D = 10,000 model installed as the shadow. After the load it
// drains the shadow worker and also reports the share of scored records
// the shadow compared and the batches its lossy queue dropped.
func BenchmarkScoreConcurrentShadow(b *testing.B) { benchScoreConcurrent(b, true) }

func benchScoreConcurrent(b *testing.B, shadow bool) {
	const clients = 64
	dep := testDeployment(b, 10000)
	s := New(dep, Config{})
	defer s.Close()
	if shadow {
		if _, err := s.AdoptShadow(altDeployment(b, 10000), "shadow"); err != nil {
			b.Fatal(err)
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        2 * clients,
		MaxIdleConnsPerHost: 2 * clients,
	}}
	defer client.CloseIdleConnections()

	d := synth.PimaM(7)
	bodies := make([][]byte, len(d.X))
	want := make([]uint64, len(d.X))
	for i, row := range d.X {
		body, err := json.Marshal(scoreRequest{Features: floats(row...)})
		if err != nil {
			b.Fatal(err)
		}
		bodies[i] = body
		want[i] = math.Float64bits(dep.Score(row))
	}

	var (
		next atomic.Uint64
		mu   sync.Mutex
		lats []time.Duration
	)
	procs := runtime.GOMAXPROCS(0)
	b.SetParallelism((clients + procs - 1) / procs)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var local []time.Duration
		defer func() {
			mu.Lock()
			lats = append(lats, local...)
			mu.Unlock()
		}()
		for pb.Next() {
			i := int(next.Add(1)) % len(bodies)
			sent := time.Now()
			resp, err := client.Post(ts.URL+"/v1/score", "application/json", bytes.NewReader(bodies[i]))
			if err != nil {
				b.Error(err)
				return
			}
			out, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			local = append(local, time.Since(sent))
			if err != nil {
				b.Error(err)
				return
			}
			if resp.StatusCode != http.StatusOK {
				b.Errorf("row %d: status %d: %s", i, resp.StatusCode, out)
				return
			}
			var sr scoreResponse
			if err := json.Unmarshal(out, &sr); err != nil {
				b.Error(err)
				return
			}
			if got := math.Float64bits(sr.Score); got != want[i] {
				b.Errorf("row %d: score bits %#x, want %#x", i, got, want[i])
				return
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "records/s")
	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		q := func(p float64) float64 {
			return float64(lats[int(math.Ceil(p*float64(len(lats))))-1]) / float64(time.Millisecond)
		}
		b.ReportMetric(q(0.50), "p50-ms")
		b.ReportMetric(q(0.99), "p99-ms")
	}
	if shadow {
		s.shadow.close() // drain the queue, so every comparison has run
		sh := s.shadow.slot.Load()
		b.ReportMetric(100*float64(sh.shadow.snapshot().Records)/float64(b.N), "shadow-compared-%")
		b.ReportMetric(float64(s.shadow.q.Dropped()), "shadow-drops")
	}
}
