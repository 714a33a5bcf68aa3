package serve

import (
	"testing"
	"time"
)

func TestBatchBuckets(t *testing.T) {
	cases := []struct {
		n    int
		want string
	}{
		{1, "1"}, {2, "2"}, {3, "3-4"}, {4, "3-4"}, {5, "5-8"}, {8, "5-8"},
		{9, "9-16"}, {16, "9-16"}, {17, "17-32"}, {32, "17-32"},
		{33, "33-64"}, {64, "33-64"}, {65, "65+"}, {1000, "65+"},
	}
	for _, tc := range cases {
		if got := batchBucketLabels[batchBucket(tc.n)]; got != tc.want {
			t.Errorf("batchBucket(%d) = %s, want %s", tc.n, got, tc.want)
		}
	}
}

func TestMetricsSnapshot(t *testing.T) {
	m := NewMetrics()
	m.ObserveBatch(1)
	m.ObserveBatch(7)
	m.ObserveBatch(7)
	m.scoreRequests.Add(3)
	m.recordsScored.Add(15)
	s := m.Snapshot()
	if s.Batches != 3 {
		t.Errorf("batches %d", s.Batches)
	}
	if want := 15.0 / 3.0; s.MeanBatchSize != want {
		t.Errorf("mean batch size %v, want %v", s.MeanBatchSize, want)
	}
	var ones, mids uint64
	for _, b := range s.BatchSizes {
		switch b.Size {
		case "1":
			ones = b.Count
		case "5-8":
			mids = b.Count
		}
	}
	if ones != 1 || mids != 2 {
		t.Errorf("histogram ones=%d mids=%d, want 1/2", ones, mids)
	}
}

func TestLatencyQuantiles(t *testing.T) {
	m := NewMetrics()
	if m.quantile(0.5) != 0 {
		t.Error("empty histogram quantile not 0")
	}
	// 90 fast requests, 10 slow: p50 lands in the fast bucket, p99 in the
	// slow one.
	for i := 0; i < 90; i++ {
		m.ObserveLatencyTrace(40*time.Microsecond, "")
	}
	for i := 0; i < 10; i++ {
		m.ObserveLatencyTrace(30*time.Millisecond, "")
	}
	p50, p99 := m.quantile(0.50), m.quantile(0.99)
	if p50 > 100*time.Microsecond {
		t.Errorf("p50 %v, want the fast bucket", p50)
	}
	if p99 < 10*time.Millisecond {
		t.Errorf("p99 %v, want the slow bucket", p99)
	}
	s := m.Snapshot()
	if s.LatencyP50Micros >= s.LatencyP99Micros {
		t.Errorf("p50 %v >= p99 %v", s.LatencyP50Micros, s.LatencyP99Micros)
	}
	// Overflow bucket: beyond the last bound.
	m2 := NewMetrics()
	m2.ObserveLatencyTrace(time.Hour, "")
	if q := m2.quantile(0.5); q < latencyBound(numLatencyBuckets-1) {
		t.Errorf("overflow quantile %v below the last bound", q)
	}
}

// TestQuantileEmptyTailOverflow pins the overflow-rank fix: with 9 fast
// samples and 1 overflow sample, the p99 order statistic is the 10th
// sample — the overflow one — so p99 must not report a bound below it.
// (Truncating the rank used to land p99 in the fast bucket.)
func TestQuantileEmptyTailOverflow(t *testing.T) {
	m := NewMetrics()
	for i := 0; i < 9; i++ {
		m.ObserveLatencyTrace(40*time.Microsecond, "")
	}
	m.ObserveLatencyTrace(time.Hour, "") // overflow: beyond latencyBound(15)
	if q := m.quantile(0.99); q < latencyBound(numLatencyBuckets-1) {
		t.Errorf("p99 = %v, below the overflow sample's lower bound %v",
			q, latencyBound(numLatencyBuckets-1))
	}
	// p50 still sits in the fast bucket.
	if q := m.quantile(0.50); q > latencyBound(0) {
		t.Errorf("p50 = %v, want the first bucket", q)
	}
	// q=1.0 is the maximum: always at least the overflow bound.
	if q := m.quantile(1.0); q < latencyBound(numLatencyBuckets-1) {
		t.Errorf("p100 = %v, below the overflow bound", q)
	}
}

// TestLatencyBucketBoundaries pins the bucket-edge contract: a sample
// exactly on a bound (d == latencyBound(i)) belongs to bucket i, and one
// nanosecond more spills into bucket i+1.
func TestLatencyBucketBoundaries(t *testing.T) {
	for i := 0; i < numLatencyBuckets; i++ {
		m := NewMetrics()
		m.ObserveLatencyTrace(latencyBound(i), "")
		if got := m.latencyHist[i].Load(); got != 1 {
			t.Errorf("d == latencyBound(%d): bucket %d count %d, want 1", i, i, got)
		}
		m.ObserveLatencyTrace(latencyBound(i)+time.Nanosecond, "")
		if got := m.latencyHist[i+1].Load(); got != 1 {
			t.Errorf("d == latencyBound(%d)+1ns: bucket %d count %d, want 1", i, i+1, got)
		}
	}
	// Sum/count accounting for the Prometheus _sum line.
	m := NewMetrics()
	m.ObserveLatencyTrace(100*time.Microsecond, "")
	m.ObserveLatencyTrace(300*time.Microsecond, "")
	if got := time.Duration(m.latencySum.Load()); got != 400*time.Microsecond {
		t.Errorf("latency sum %v, want 400µs", got)
	}
	if got := m.latencyObs.Load(); got != 2 {
		t.Errorf("latency count %d, want 2", got)
	}
}
