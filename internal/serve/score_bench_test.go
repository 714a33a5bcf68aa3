package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
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

	"hdfe/internal/core"
	"hdfe/internal/dataset"
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
	reportLatencies(b, lats, 0.50, 0.99)
	if shadow {
		s.shadow.close() // drain the queue, so every comparison has run
		sh := s.shadow.slot.Load()
		b.ReportMetric(100*float64(sh.shadow.snapshot().Records)/float64(b.N), "shadow-compared-%")
		b.ReportMetric(float64(s.shadow.q.Dropped()), "shadow-drops")
	}
}

// reportLatencies reports each quantile p of lats in milliseconds, as
// "p50-ms" for 0.50. It sorts lats.
func reportLatencies(b *testing.B, lats []time.Duration, ps ...float64) {
	if len(lats) == 0 {
		return
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	for _, p := range ps {
		lat := lats[int(math.Ceil(p*float64(len(lats))))-1]
		b.ReportMetric(float64(lat)/float64(time.Millisecond), fmt.Sprintf("p%02.0f-ms", 100*p))
	}
}

// batchRouteRecords is the records per request of BenchmarkScoreBatchRoute,
// as in hdperf's cohort workloads.
const batchRouteRecords = 64

// BenchmarkScoreBatchRoute measures /v1/score/batch as the cohort
// workloads drive it: each client is a closed loop on its own keep-alive
// connection, posting 64-record bodies to a server at the default Config
// with a D = 10,000 model, and every score is checked against
// Deployment.ScoreBatch under Float64bits. One op is one request. It
// reports records/s and the client-timed p50 and p90 round trips, for
// Pima M and Sylhet with 1 and 2 clients; with 1, each batch meets an
// otherwise idle server.
//
//	go test ./internal/serve -run '^$' -bench ScoreBatchRoute -benchtime 4000x
func BenchmarkScoreBatchRoute(b *testing.B) {
	for _, data := range []struct {
		name string
		d    *dataset.Dataset
	}{
		{"pima", synth.PimaM(7)},
		{"sylhet", synth.Sylhet(synth.DefaultSylhetConfig(7))},
	} {
		dep, err := core.BuildDeployment(core.SpecsFor(data.d.Features), data.d.X, data.d.Y, core.Options{Dim: 10000, Seed: 7})
		if err != nil {
			b.Fatal(err)
		}
		var bodies [][]byte
		var want [][]float64
		for lo := 0; lo+batchRouteRecords <= len(data.d.X); lo += batchRouteRecords {
			rows := data.d.X[lo : lo+batchRouteRecords]
			recs := make([][]*float64, len(rows))
			for i, row := range rows {
				recs[i] = floats(row...)
			}
			body, err := json.Marshal(batchScoreRequest{Records: recs})
			if err != nil {
				b.Fatal(err)
			}
			bodies = append(bodies, body)
			want = append(want, dep.ScoreBatch(rows))
		}
		for _, clients := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/clients=%d", data.name, clients), func(b *testing.B) {
				benchScoreBatchRoute(b, dep, bodies, want, clients)
			})
		}
	}
}

func benchScoreBatchRoute(b *testing.B, dep *core.Deployment, bodies [][]byte, want [][]float64, clients int) {
	s := New(dep, Config{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var next atomic.Int64
	lats := make([][]time.Duration, clients)
	var wg sync.WaitGroup
	b.ResetTimer()
	for c := range lats {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := &http.Transport{MaxIdleConnsPerHost: 1}
			defer tr.CloseIdleConnections()
			client := &http.Client{Transport: tr}
			for n := next.Add(1); n <= int64(b.N); n = next.Add(1) {
				k := int(n) % len(bodies)
				sent := time.Now()
				resp, err := client.Post(ts.URL+"/v1/score/batch", "application/json", bytes.NewReader(bodies[k]))
				if err != nil {
					b.Error(err)
					return
				}
				out, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				lats[c] = append(lats[c], time.Since(sent))
				if err != nil {
					b.Error(err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					b.Errorf("body %d: status %d: %s", k, resp.StatusCode, out)
					return
				}
				var br struct {
					Scores []float64 `json:"scores"`
				}
				if err := json.Unmarshal(out, &br); err != nil {
					b.Error(err)
					return
				}
				if len(br.Scores) != len(want[k]) {
					b.Errorf("body %d: %d scores, want %d", k, len(br.Scores), len(want[k]))
					return
				}
				for i, sc := range br.Scores {
					if math.Float64bits(sc) != math.Float64bits(want[k][i]) {
						b.Errorf("body %d record %d: score %v, want %v", k, i, sc, want[k][i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(b.N*batchRouteRecords)/b.Elapsed().Seconds(), "records/s")
	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	reportLatencies(b, all, 0.50, 0.90)
}
