package drift

import (
	"math/rand"
	"testing"
)

// TestQualityInterleavedRequests records two multi-record requests whose
// keys would overlap as runs of consecutive prediction keys (10, 11, 12
// and 11, 12, 13): each index joins its own request's prediction.
func TestQualityInterleavedRequests(t *testing.T) {
	q := NewQuality(nil, QualityConfig{Capacity: 16, Window: 16})
	q.RecordBatch(10, []int{1, 0, 1})
	q.RecordBatch(11, []int{0, 0, 1})
	for i := 0; i < 3; i++ {
		for _, req := range []uint64{11, 10} {
			if got := q.Feedback(req, i, 1); got != Matched {
				t.Errorf("request %d prediction %d: %v, want matched", req, i, got)
			}
		}
	}
	for _, req := range []uint64{10, 11} {
		if got := q.Feedback(req, 3, 1); got != Unknown {
			t.Errorf("request %d prediction 3: %v, want unknown", req, got)
		}
	}
	// Labels of 1 on predictions 1, 0, 1 and 0, 0, 1.
	if st := q.Snapshot(); st.Cumulative != (Confusion{TP: 3, FN: 3}) || st.Pending != 0 {
		t.Errorf("confusion %+v, pending %d", st.Cumulative, st.Pending)
	}
}

// TestQualityEvictionAtRingBoundary fills an 8-slot ring with a 5- and a
// 5-prediction request, so the second wraps past the ring's end and
// evicts the first request's first two predictions. The first request's
// later predictions still join; a third request evicts the rest of it,
// and with its last prediction goes its index entry.
func TestQualityEvictionAtRingBoundary(t *testing.T) {
	q := NewQuality(nil, QualityConfig{Capacity: 8, Window: 16})
	q.RecordBatch(1, []int{1, 1, 1, 1, 1})
	q.RecordBatch(2, []int{0, 0, 0, 0, 0})
	for i, want := range []JoinResult{Unknown, Unknown, Matched, Matched, Matched} {
		if got := q.Feedback(1, i, 1); got != want {
			t.Errorf("request 1 prediction %d: %v, want %v", i, got, want)
		}
	}
	for i := 0; i < 5; i++ {
		if got := q.Feedback(2, i, 0); got != Matched {
			t.Errorf("request 2 prediction %d (across the ring's end): %v, want matched", i, got)
		}
	}
	q.RecordBatch(3, []int{1, 1, 1})
	if _, ok := q.byReq[1]; ok {
		t.Error("request 1 is still indexed after its last prediction was evicted")
	}
	if got := q.Feedback(1, 4, 1); got != Unknown {
		t.Errorf("request 1 prediction 4 after eviction: %v, want unknown", got)
	}
	if st := q.Snapshot(); st.Matched != 8 || st.Pending != 3 || len(q.byReq) != 2 {
		t.Errorf("matched %d, pending %d, %d indexed requests; want 8, 3, 2", st.Matched, st.Pending, len(q.byReq))
	}
}

// TestQualityLabelsWholeBatch labels every record of a 64-record request
// at the default capacity: each joins once, a second label is a
// duplicate, and nothing stays pending.
func TestQualityLabelsWholeBatch(t *testing.T) {
	q := NewQuality(nil, QualityConfig{})
	preds := make([]int, 64)
	for i := range preds {
		preds[i] = i % 3 & 1
	}
	q.RecordBatch(42, preds)
	if st := q.Snapshot(); st.Pending != 64 {
		t.Fatalf("pending %d before labels, want 64", st.Pending)
	}
	for i, p := range preds {
		if got := q.Feedback(42, i, p); got != Matched {
			t.Fatalf("prediction %d: %v, want matched", i, got)
		}
	}
	if got := q.Feedback(42, 7, 0); got != Duplicate {
		t.Errorf("second label: %v, want duplicate", got)
	}
	st := q.Snapshot()
	if st.Matched != 64 || st.Pending != 0 || st.Accuracy != 1 || st.Cumulative.total() != 64 {
		t.Errorf("after 64 labels: %+v", st)
	}
}

// refPrediction is one prediction in refQuality.
type refPrediction struct {
	req            uint64
	i, pred        int
	valid, labeled bool
}

// refQuality is the join rule written one prediction at a time: a FIFO of
// at most capacity predictions, where recording no predictions does
// nothing, re-recording a request marks its older predictions stale, and
// a label scans for its prediction.
type refQuality struct {
	capacity int
	fifo     []refPrediction
}

func (r *refQuality) record(req uint64, preds []int) {
	if len(preds) == 0 {
		return
	}
	for k := range r.fifo {
		if r.fifo[k].req == req {
			r.fifo[k].valid = false
		}
	}
	for i, p := range preds {
		if len(r.fifo) == r.capacity {
			r.fifo = r.fifo[1:]
		}
		r.fifo = append(r.fifo, refPrediction{req: req, i: i, pred: p, valid: true})
	}
}

func (r *refQuality) feedback(req uint64, i int) JoinResult {
	for k := range r.fifo {
		if p := &r.fifo[k]; p.valid && p.req == req && p.i == i {
			if p.labeled {
				return Duplicate
			}
			p.labeled = true
			return Matched
		}
	}
	return Unknown
}

func (r *refQuality) pending() uint64 {
	var n uint64
	for _, p := range r.fifo {
		if p.valid && !p.labeled {
			n++
		}
	}
	return n
}

// TestQualityRequestIndexMatchesReference drives the request index and
// refQuality with the same random requests (re-recorded keys, requests
// longer than the ring, empty ones) and labels (out-of-range indexes
// too): every join result and pending count must agree, and the index
// never holds more requests than the ring holds predictions.
func TestQualityRequestIndexMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(26))
	for trial := 0; trial < 200; trial++ {
		capacity := 1 + r.Intn(9)
		q := NewQuality(nil, QualityConfig{Capacity: capacity, Window: 4})
		ref := &refQuality{capacity: capacity}
		for op := 0; op < 60; op++ {
			req := uint64(r.Intn(6))
			if r.Intn(3) == 0 {
				preds := make([]int, r.Intn(capacity+3))
				for i := range preds {
					preds[i] = r.Intn(2)
				}
				q.RecordBatch(req, preds)
				ref.record(req, preds)
			} else {
				i := r.Intn(capacity+4) - 1
				if got, want := q.Feedback(req, i, 1), ref.feedback(req, i); got != want {
					t.Fatalf("trial %d op %d: Feedback(%d, %d) = %v, want %v", trial, op, req, i, got, want)
				}
			}
			if got, want := q.Snapshot().Pending, ref.pending(); got != want {
				t.Fatalf("trial %d op %d: pending %d, want %d", trial, op, got, want)
			}
			if len(q.byReq) > capacity {
				t.Fatalf("trial %d op %d: %d indexed requests for %d slots", trial, op, len(q.byReq), capacity)
			}
		}
	}
}
