package drift

import (
	"testing"
)

// FuzzFeedbackJoin throws arbitrary interleavings of predictions and
// feedback labels — including unknown, duplicate, and recycled keys — at
// a small prediction ring and asserts the tracker never panics
// and never corrupts its counters: every label call is accounted for
// exactly once, and confusion mass always equals the matched count.
func FuzzFeedbackJoin(f *testing.F) {
	f.Add([]byte{0x01, 0x82, 0x01, 0x83})
	f.Add([]byte{0x00, 0x80, 0x80, 0x7f, 0xff})
	f.Add([]byte("feedback join soup"))
	f.Fuzz(func(t *testing.T, ops []byte) {
		q := NewQuality(&Baseline{LOOCVAccuracy: 0.8, TrainRecords: 10},
			QualityConfig{Capacity: 4, Window: 8, MinLabels: 1})
		var feedbacks, matched, unknown, duplicate uint64
		for _, op := range ops {
			// Low 6 bits pick a key from a tiny space so collisions,
			// evictions and duplicates all happen; the top bit picks
			// record vs feedback; bit 6 is the prediction/label.
			key := uint64(op & 0x3f)
			bit := int(op>>6) & 1
			if op&0x80 == 0 {
				q.RecordBatch(key, []int{bit})
			} else {
				feedbacks++
				switch q.Feedback(key, bit) {
				case Matched:
					matched++
				case Unknown:
					unknown++
				case Duplicate:
					duplicate++
				}
			}
		}
		st := q.Snapshot()
		if st.Matched != matched || st.Unknown != unknown || st.Duplicate != duplicate {
			t.Fatalf("join counters drifted: snapshot %+v, replay matched=%d unknown=%d duplicate=%d",
				st, matched, unknown, duplicate)
		}
		if matched+unknown+duplicate != feedbacks {
			t.Fatalf("feedback calls leaked: %d+%d+%d != %d", matched, unknown, duplicate, feedbacks)
		}
		if st.Cumulative.total() != matched {
			t.Fatalf("confusion mass %d != matched %d", st.Cumulative.total(), matched)
		}
		if st.WindowLabels > matched || st.WindowLabels > uint64(st.WindowSize) {
			t.Fatalf("window labels %d exceed matched %d or window %d",
				st.WindowLabels, matched, st.WindowSize)
		}
		if matched > 0 && (st.Accuracy < 0 || st.Accuracy > 1) {
			t.Fatalf("accuracy %v out of [0,1]", st.Accuracy)
		}
	})
}
