package drift

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

func TestPSIIdenticalDistributionsIsZero(t *testing.T) {
	a := []uint64{10, 20, 30, 40}
	if psi := PSI(a, a); psi > 1e-12 {
		t.Errorf("PSI(a, a) = %v, want ~0", psi)
	}
	// Scaling one side must not matter: PSI compares proportions.
	b := []uint64{100, 200, 300, 400}
	if psi := PSI(a, b); psi > 1e-12 {
		t.Errorf("PSI over scaled copy = %v, want ~0", psi)
	}
}

func TestPSIDetectsShift(t *testing.T) {
	expected := []uint64{100, 100, 100, 100}
	shifted := []uint64{10, 40, 100, 250}
	if psi := PSI(expected, shifted); psi < 0.25 {
		t.Errorf("PSI of a hard shift = %v, want > 0.25", psi)
	}
	mild := []uint64{95, 105, 98, 102}
	if psi := PSI(expected, mild); psi > 0.1 {
		t.Errorf("PSI of sampling noise = %v, want < 0.1", psi)
	}
}

func TestPSIEmptySides(t *testing.T) {
	if psi := PSI([]uint64{0, 0}, []uint64{1, 2}); psi != 0 {
		t.Errorf("PSI with empty reference = %v, want 0", psi)
	}
	if psi := PSI([]uint64{1, 2}, []uint64{0, 0}); psi != 0 {
		t.Errorf("PSI with empty live side = %v, want 0", psi)
	}
}

func TestBucketOf(t *testing.T) {
	cases := []struct {
		t, lo, hi float64
		bins      int
		want      int
	}{
		{-1, 0, 10, 10, -1}, // below
		{11, 0, 10, 10, 10}, // above
		{0, 0, 10, 10, 0},   // at min
		{10, 0, 10, 10, 9},  // at max lands in last bucket
		{5, 0, 10, 10, 5},   // interior
		{9.999, 0, 10, 10, 9},
		{3, 3, 3, 10, 0}, // degenerate range
	}
	for _, c := range cases {
		if got := bucketOf(c.t, c.lo, c.hi, c.bins); got != c.want {
			t.Errorf("bucketOf(%v, %v, %v, %d) = %d, want %d", c.t, c.lo, c.hi, c.bins, got, c.want)
		}
	}
}

func TestBuildReference(t *testing.T) {
	X := [][]float64{
		{0, 1, math.NaN()},
		{5, 1, 2},
		{10, 0, 2},
		{2.5, 0, 2},
	}
	ref := BuildReference([]string{"a", "b", "c"}, X, 4, Baseline{LOOCVAccuracy: 0.8, TrainRecords: 4, PosRate: 0.5})
	if len(ref.Features) != 3 || ref.Bins != 4 {
		t.Fatalf("reference shape: %+v", ref)
	}
	a := ref.Features[0]
	if a.Min != 0 || a.Max != 10 || a.Observed != 4 || a.Missing != 0 {
		t.Errorf("feature a: %+v", a)
	}
	// 0 → bucket 0, 2.5 → bucket 1 (boundary falls into upper), 5 → 2, 10 → 3.
	if a.Counts[0] != 1 || a.Counts[3] != 1 {
		t.Errorf("feature a counts: %v", a.Counts)
	}
	var total uint64
	for _, c := range a.Counts {
		total += c
	}
	if total != 4 {
		t.Errorf("feature a histogram mass %d, want 4", total)
	}
	c := ref.Features[2]
	if c.Missing != 1 || c.Observed != 3 {
		t.Errorf("feature c missing/observed: %+v", c)
	}
	if c.Min != 2 || c.Max != 2 {
		t.Errorf("feature c degenerate range: %+v", c)
	}
}

func TestBuildReferenceAllMissingColumn(t *testing.T) {
	X := [][]float64{{math.NaN()}, {math.NaN()}}
	ref := BuildReference([]string{"gone"}, X, 0, Baseline{})
	f := ref.Features[0]
	if f.Min != 0 || f.Max != 0 || f.Observed != 0 || f.Missing != 2 {
		t.Errorf("all-missing column: %+v", f)
	}
	if ref.Bins != DefaultBins {
		t.Errorf("bins %d, want default %d", ref.Bins, DefaultBins)
	}
}

func TestReferenceRoundTrip(t *testing.T) {
	X := [][]float64{{1, 0}, {2, 1}, {3, 1}, {4, math.NaN()}}
	ref := BuildReference([]string{"x", "flag"}, X, 6, Baseline{LOOCVAccuracy: 0.75, TrainRecords: 4, PosRate: 0.25})
	var buf bytes.Buffer
	n, err := ref.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := ReadReference(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Bins != ref.Bins || len(got.Features) != len(ref.Features) {
		t.Fatalf("round trip shape: %+v", got)
	}
	for j := range ref.Features {
		w, g := ref.Features[j], got.Features[j]
		if g.Name != w.Name || g.Min != w.Min || g.Max != w.Max ||
			g.Missing != w.Missing || g.Observed != w.Observed {
			t.Errorf("feature %d: got %+v want %+v", j, g, w)
		}
		for b := range w.Counts {
			if g.Counts[b] != w.Counts[b] {
				t.Errorf("feature %d bucket %d: got %d want %d", j, b, g.Counts[b], w.Counts[b])
			}
		}
	}
	if got.Baseline != ref.Baseline {
		t.Errorf("baseline: got %+v want %+v", got.Baseline, ref.Baseline)
	}
}

func TestReadReferenceRejectsGarbage(t *testing.T) {
	for _, b := range [][]byte{
		nil,
		[]byte("short"),
		[]byte("NOTMAGIC\nxxxxxxxxxxxxxxxx"),
		append([]byte(refMagic), 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0), // negative bins
	} {
		if _, err := ReadReference(bytes.NewReader(b)); err == nil {
			t.Errorf("garbage %q accepted", b)
		}
	}
}

func TestMonitorMatchingTrafficStaysCalm(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	train := make([][]float64, 2000)
	for i := range train {
		train[i] = []float64{r.NormFloat64()*10 + 100}
	}
	ref := BuildReference([]string{"glucose"}, train, 0, Baseline{})
	m := NewMonitor(ref)
	for i := 0; i < 2000; i++ {
		m.ObserveRows([][]float64{{r.NormFloat64()*10 + 100}})
	}
	fd := m.Snapshot()[0]
	if fd.PSI > 0.1 {
		t.Errorf("in-distribution PSI = %v, want < 0.1", fd.PSI)
	}
	if fd.ClampRatio > 0.05 {
		t.Errorf("in-distribution clamp ratio = %v", fd.ClampRatio)
	}
	if m.Rows() != 2000 {
		t.Errorf("rows = %d", m.Rows())
	}
}

func TestMonitorDetectsShiftAndClamp(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	train := make([][]float64, 2000)
	for i := range train {
		train[i] = []float64{r.NormFloat64()*10 + 100, r.Float64()}
	}
	ref := BuildReference([]string{"glucose", "other"}, train, 0, Baseline{})
	m := NewMonitor(ref)
	for i := 0; i < 1000; i++ {
		// Glucose +2σ; the second feature stays in distribution.
		m.ObserveRows([][]float64{{r.NormFloat64()*10 + 120, r.Float64()}})
	}
	snap := m.Snapshot()
	if snap[0].PSI < 0.25 {
		t.Errorf("shifted feature PSI = %v, want > 0.25", snap[0].PSI)
	}
	if snap[1].PSI > 0.1 {
		t.Errorf("steady feature PSI = %v, want < 0.1", snap[1].PSI)
	}
	if snap[0].Above == 0 || snap[0].ClampRatio == 0 {
		t.Errorf("shifted feature should clamp above: %+v", snap[0])
	}
}

func TestMonitorCountsMissingSeparately(t *testing.T) {
	ref := BuildReference([]string{"x"}, [][]float64{{1}, {2}, {3}}, 0, Baseline{})
	m := NewMonitor(ref)
	m.ObserveRows([][]float64{{math.NaN()}})
	m.ObserveRows([][]float64{{2}})
	fd := m.Snapshot()[0]
	if fd.Missing != 1 || fd.Observed != 1 {
		t.Errorf("missing=%d observed=%d, want 1/1", fd.Missing, fd.Observed)
	}
}

func TestScoreWindowRolls(t *testing.T) {
	w := NewScoreWindow(4)
	for _, s := range []float64{0.9, 0.9, 0.9, 0.9, 0.1, 0.1} {
		w.Observe(s)
	}
	st := w.Snapshot()
	if st.Count != 4 || st.Total != 6 || st.Window != 4 {
		t.Fatalf("window stats: %+v", st)
	}
	// Window holds {0.1, 0.1, 0.9, 0.9} after wrap.
	if st.PositiveRatio != 0.5 {
		t.Errorf("positive ratio = %v, want 0.5", st.PositiveRatio)
	}
	if math.Abs(st.MeanMargin-0.8) > 1e-9 {
		t.Errorf("mean margin = %v, want 0.8", st.MeanMargin)
	}
	var mass uint64
	for _, c := range st.Histogram {
		mass += c
	}
	if mass != 4 {
		t.Errorf("histogram mass %d, want 4", mass)
	}
}

func TestScoreWindowEmpty(t *testing.T) {
	st := NewScoreWindow(0).Snapshot()
	if st.Count != 0 || st.Window != 4096 || st.PositiveRatio != 0 {
		t.Errorf("empty window snapshot: %+v", st)
	}
}

func TestQualityJoinAndCanary(t *testing.T) {
	q := NewQuality(&Baseline{LOOCVAccuracy: 0.9, TrainRecords: 100, PosRate: 0.4},
		QualityConfig{Capacity: 8, Window: 8, Tolerance: 0.05, MinLabels: 4})

	const ab, c, d = 10, 12, 13
	q.RecordBatch(ab, []int{1, 0}) // a, b
	q.RecordBatch(c, []int{1})
	q.RecordBatch(d, []int{0})

	if got := q.Feedback(99, 0, 1); got != Unknown {
		t.Errorf("unknown key join = %v", got)
	}
	if got := q.Feedback(ab, 0, 1); got != Matched { // TP
		t.Errorf("join a = %v", got)
	}
	if got := q.Feedback(ab, 0, 0); got != Duplicate {
		t.Errorf("second label for a = %v", got)
	}
	q.Feedback(ab, 1, 0) // TN
	q.Feedback(c, 0, 0)  // FP
	q.Feedback(d, 0, 1)  // FN

	st := q.Snapshot()
	if st.Matched != 4 || st.Unknown != 1 || st.Duplicate != 1 {
		t.Fatalf("join counters: %+v", st)
	}
	want := Confusion{TP: 1, TN: 1, FP: 1, FN: 1}
	if st.Cumulative != want {
		t.Errorf("confusion %+v, want %+v", st.Cumulative, want)
	}
	if st.RollingAccuracy != 0.5 || st.Accuracy != 0.5 {
		t.Errorf("accuracy %v/%v, want 0.5", st.RollingAccuracy, st.Accuracy)
	}
	if math.Abs(st.RollingF1-0.5) > 1e-9 {
		t.Errorf("rolling F1 = %v, want 0.5", st.RollingF1)
	}
	// 4 labels ≥ MinLabels and 0.5 < 0.9 - 0.05: the canary must trip.
	if st.Canary != CanaryDegraded {
		t.Errorf("canary = %v, want degraded", st.Canary)
	}
	if st.Pending != 0 {
		t.Errorf("pending = %d, want 0", st.Pending)
	}
}

func TestQualityCanaryStates(t *testing.T) {
	// No baseline: disabled regardless of labels.
	q := NewQuality(nil, QualityConfig{Capacity: 4, Window: 4, MinLabels: 1})
	q.RecordBatch(7, []int{1})
	q.Feedback(7, 0, 1)
	if st := q.Snapshot(); st.Canary != CanaryDisabled {
		t.Errorf("canary without baseline = %v", st.Canary)
	}

	// Too few labels: pending.
	q = NewQuality(&Baseline{LOOCVAccuracy: 0.9}, QualityConfig{MinLabels: 10})
	q.RecordBatch(7, []int{1})
	q.Feedback(7, 0, 1)
	if st := q.Snapshot(); st.Canary != CanaryPending {
		t.Errorf("canary with 1 label = %v", st.Canary)
	}

	// Accurate labels: healthy.
	q = NewQuality(&Baseline{LOOCVAccuracy: 0.9}, QualityConfig{MinLabels: 2})
	q.RecordBatch(1, []int{1, 1, 1})
	for i := 0; i < 3; i++ {
		q.Feedback(1, i, 1)
	}
	if st := q.Snapshot(); st.Canary != CanaryHealthy {
		t.Errorf("canary with perfect labels = %v", st.Canary)
	}
}

func TestQualityRingEviction(t *testing.T) {
	const old, mid, new = 1, 2, 3
	q := NewQuality(nil, QualityConfig{Capacity: 2, Window: 4})
	q.RecordBatch(old, []int{1})
	q.RecordBatch(mid, []int{1})
	q.RecordBatch(new, []int{1}) // evicts old
	if got := q.Feedback(old, 0, 1); got != Unknown {
		t.Errorf("evicted key join = %v, want unknown", got)
	}
	if got := q.Feedback(new, 0, 1); got != Matched {
		t.Errorf("fresh key join = %v, want matched", got)
	}
	// Re-recording a key replaces its prediction: the newer one joins,
	// and the labeled older one leaves no index entry behind.
	q.RecordBatch(new, []int{0})
	if got := q.Feedback(new, 0, 0); got != Matched {
		t.Errorf("re-recorded key join = %v, want matched", got)
	}
	st := q.Snapshot()
	if st.Cumulative.total() != uint64(st.Matched) {
		t.Errorf("confusion mass %d != matched %d", st.Cumulative.total(), st.Matched)
	}
}

func TestQualityNoLabelsIsNaN(t *testing.T) {
	st := NewQuality(nil, QualityConfig{}).Snapshot()
	if !math.IsNaN(st.Accuracy) || !math.IsNaN(st.RollingAccuracy) || !math.IsNaN(st.F1) {
		t.Errorf("metrics with no labels: %+v", st)
	}
}

// TestQualityRecordBatchEvictsInOrder records a batch longer than the
// ring: the ring keeps the newest Capacity of its predictions in order,
// so the first ones report unknown and the rest match with their own
// predictions.
func TestQualityRecordBatchEvictsInOrder(t *testing.T) {
	q := NewQuality(nil, QualityConfig{Capacity: 4, Window: 8})
	q.RecordBatch(100, []int{1, 1, 0, 1, 0, 0})
	if got := q.Feedback(99, 0, 1); got != Unknown {
		t.Errorf("request 99: %v, want unknown", got)
	}
	if got := q.Feedback(100, -1, 1); got != Unknown {
		t.Errorf("prediction -1: %v, want unknown", got)
	}
	for i, want := range []JoinResult{Unknown, Unknown, Matched, Matched, Matched, Matched, Unknown} {
		if got := q.Feedback(100, i, 1); got != want {
			t.Errorf("prediction %d: %v, want %v", i, got, want)
		}
	}
	// Labels of 1 on predictions 0, 1, 0, 0.
	if st := q.Snapshot(); st.Cumulative != (Confusion{TP: 1, FN: 3}) || st.Pending != 0 {
		t.Errorf("after the batch: confusion %+v, pending %d", st.Cumulative, st.Pending)
	}
}

// TestObserveBatchedMatchesOneAtATime feeds the same rows and scores to
// the input monitor and the score window one at a time and in batches of
// mixed sizes (including one longer than the window), including missing,
// out-of-range and short rows, and requires equal snapshots.
func TestObserveBatchedMatchesOneAtATime(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	train := make([][]float64, 500)
	for i := range train {
		train[i] = []float64{r.NormFloat64()*10 + 100, r.Float64(), float64(r.Intn(2))}
	}
	ref := BuildReference([]string{"glucose", "u", "flag"}, train, 0, Baseline{})
	rows := make([][]float64, 300)
	scores := make([]float64, len(rows))
	for i := range rows {
		rows[i] = []float64{r.NormFloat64()*15 + 100, r.Float64()*1.2 - 0.1, float64(r.Intn(3))}
		switch i % 7 {
		case 0:
			rows[i][1] = math.NaN()
		case 1:
			rows[i] = rows[i][:2]
		}
		scores[i] = r.Float64()
	}
	one, batched := NewMonitor(ref), NewMonitor(ref)
	w1, wb := NewScoreWindow(64), NewScoreWindow(64)
	for i, row := range rows {
		one.ObserveRows([][]float64{row})
		w1.Observe(scores[i])
	}
	for lo, k := 0, 0; lo < len(rows); k++ {
		hi := min(lo+[]int{1, 3, 64, 17, 100}[k%5], len(rows))
		batched.ObserveRows(rows[lo:hi])
		wb.Observe(scores[lo:hi]...)
		lo = hi
	}
	if one.Rows() != batched.Rows() {
		t.Errorf("rows %d one at a time, %d batched", one.Rows(), batched.Rows())
	}
	if a, b := one.Snapshot(), batched.Snapshot(); !reflect.DeepEqual(a, b) {
		t.Errorf("monitor snapshots differ:\none at a time %+v\nbatched      %+v", a, b)
	}
	if a, b := w1.Snapshot(), wb.Snapshot(); !reflect.DeepEqual(a, b) {
		t.Errorf("score window snapshots differ:\none at a time %+v\nbatched      %+v", a, b)
	}
}

// TestObserveConcurrent has several goroutines observe batches at once
// (run it with -race): every row, score and prediction must be counted
// exactly once.
func TestObserveConcurrent(t *testing.T) {
	const workers, batches, size = 4, 50, 16
	ref := BuildReference([]string{"x", "y"}, [][]float64{{0, 0}, {10, 1}}, 0, Baseline{})
	m, w := NewMonitor(ref), NewScoreWindow(0)
	q := NewQuality(nil, QualityConfig{Capacity: workers * batches * size})
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rows, scores, preds := make([][]float64, size), make([]float64, size), make([]int, size)
			for b := 0; b < batches; b++ {
				for i := range rows {
					rows[i] = []float64{float64(b % 12), math.NaN()}
					scores[i], preds[i] = float64(i)/size, i%2
				}
				m.ObserveRows(rows)
				w.Observe(scores...)
				q.RecordBatch(uint64(g*batches+b), preds)
			}
		}(g)
	}
	wg.Wait()
	const total = workers * batches * size
	if m.Rows() != total || w.Snapshot().Total != total {
		t.Fatalf("rows %d, scores %d, want %d each", m.Rows(), w.Snapshot().Total, total)
	}
	snap := m.Snapshot()
	if snap[0].Observed != total || snap[1].Missing != total {
		t.Errorf("feature x observed %d, y missing %d, want %d each", snap[0].Observed, snap[1].Missing, total)
	}
	for req := uint64(0); req < workers*batches; req++ {
		for i := 0; i < size; i++ {
			if got := q.Feedback(req, i, 1); got != Matched {
				t.Fatalf("request %d prediction %d: %v, want matched", req, i, got)
			}
		}
	}
}
