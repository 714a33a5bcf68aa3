package serve

import (
	"bytes"
	"regexp"
	"strconv"
	"testing"
	"time"

	"hdfe/internal/obs"
)

// latencyBound is the request-latency histogram's k-th Prometheus bound.
func latencyBound(k int) time.Duration { return 50 * time.Microsecond << k }

var bucketLine = regexp.MustCompile(`(?m)^h_bucket\{le="([^"]+)"\} (\d+)`)

// bucketCounts renders h and returns its per-bucket (non-cumulative)
// counts, one per le bound plus the overflow, as Prometheus sees them.
func bucketCounts(t *testing.T, h *obs.Histogram) []uint64 {
	t.Helper()
	var buf bytes.Buffer
	h.WriteProm(obs.NewPromWriter(&buf), "h")
	var out []uint64
	var prev uint64
	for _, m := range bucketLine.FindAllStringSubmatch(buf.String(), -1) {
		cum, err := strconv.ParseUint(m[2], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, cum-prev)
		prev = cum
	}
	if len(out) != 17 {
		t.Fatalf("%d buckets rendered, want 17:\n%s", len(out), buf.String())
	}
	return out
}

// histCount is h's observation count as Prometheus sees it.
func histCount(t *testing.T, h *obs.Histogram) uint64 {
	t.Helper()
	var n uint64
	for _, c := range bucketCounts(t, h) {
		n += c
	}
	return n
}

func TestMetricsSummary(t *testing.T) {
	m := NewMetrics()
	m.scoreRequests.Add(3)
	m.batchRequests.Add(2)
	m.recordsScored.Add(15)
	m.Shed(ShedQueueFull)
	m.Shed(ShedQueueFull)
	m.Shed(ShedDeadline)
	m.latency.Observe(40*time.Microsecond, "")
	if got, want := m.String(), "score=3 batch=2 records=15 p50=50us p99=50us"; got != want {
		t.Errorf("summary %q, want %q", got, want)
	}
	if q, d, dr := m.ShedCount(ShedQueueFull), m.ShedCount(ShedDeadline), m.ShedCount(ShedDraining); q != 2 || d != 1 || dr != 0 {
		t.Errorf("shed queue_full=%d deadline=%d draining=%d, want 2/1/0", q, d, dr)
	}
}

func TestLatencyQuantiles(t *testing.T) {
	m := NewMetrics()
	if m.latency.Quantile(0.5) != 0 {
		t.Error("empty histogram quantile not 0")
	}
	// 90 fast requests, 10 slow: p50 lands in the fast bucket, p99 on
	// the slow sample's sub-bucket, at most 2^(1/8) above it.
	for i := 0; i < 90; i++ {
		m.latency.Observe(40*time.Microsecond, "")
	}
	for i := 0; i < 10; i++ {
		m.latency.Observe(30*time.Millisecond, "")
	}
	p50, p99 := m.latency.Quantile(0.50), m.latency.Quantile(0.99)
	if p50 != latencyBound(0) {
		t.Errorf("p50 %v, want the 50µs bound", p50)
	}
	if p99 < 30*time.Millisecond || p99 > 30*time.Millisecond*109/100 {
		t.Errorf("p99 %v, want within 9%% above 30ms", p99)
	}
	// Overflow bucket: beyond the last bound.
	m2 := NewMetrics()
	m2.latency.Observe(time.Hour, "")
	if q := m2.latency.Quantile(0.5); q < latencyBound(15) {
		t.Errorf("overflow quantile %v below the last bound", q)
	}
}

// TestQuantileEmptyTailOverflow pins the overflow-rank rule: with 9 fast
// samples and 1 overflow sample, the p99 order statistic is the 10th
// sample — the overflow one — so p99 must not report a bound below it.
// (Truncating the rank would land p99 in the fast bucket.)
func TestQuantileEmptyTailOverflow(t *testing.T) {
	m := NewMetrics()
	for i := 0; i < 9; i++ {
		m.latency.Observe(40*time.Microsecond, "")
	}
	m.latency.Observe(time.Hour, "") // overflow: beyond latencyBound(15)
	if q := m.latency.Quantile(0.99); q < latencyBound(15) {
		t.Errorf("p99 = %v, below the overflow sample's lower bound %v", q, latencyBound(15))
	}
	// p50 still sits in the fast bucket.
	if q := m.latency.Quantile(0.50); q > latencyBound(0) {
		t.Errorf("p50 = %v, want the first bucket", q)
	}
	// q=1.0 is the maximum: always at least the overflow bound.
	if q := m.latency.Quantile(1.0); q < latencyBound(15) {
		t.Errorf("p100 = %v, below the overflow bound", q)
	}
}

// TestLatencyBucketBoundaries pins the bucket-edge contract of the
// exposition: a sample exactly on a bound (d == latencyBound(i)) belongs
// to bucket i, and one nanosecond more spills into bucket i+1.
func TestLatencyBucketBoundaries(t *testing.T) {
	for i := 0; i < 16; i++ {
		m := NewMetrics()
		m.latency.Observe(latencyBound(i), "")
		m.latency.Observe(latencyBound(i)+time.Nanosecond, "")
		counts := bucketCounts(t, &m.latency)
		if counts[i] != 1 || counts[i+1] != 1 {
			t.Errorf("latencyBound(%d) and +1ns: buckets %d/%d hold %d/%d, want 1/1",
				i, i, i+1, counts[i], counts[i+1])
		}
	}
	// Sum/count accounting for the Prometheus _sum and _count lines.
	m := NewMetrics()
	m.latency.Observe(100*time.Microsecond, "")
	m.latency.Observe(300*time.Microsecond, "")
	var buf bytes.Buffer
	m.latency.WriteProm(obs.NewPromWriter(&buf), "h")
	for _, want := range []string{"\nh_sum 0.0004\n", "\nh_count 2\n"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("exposition missing %q:\n%s", want, buf.String())
		}
	}
}
