package obs

import (
	"sync"
	"testing"
	"time"
)

func TestStageNames(t *testing.T) {
	want := []string{"validate", "encode", "score", "respond"}
	if len(want) != NumStages {
		t.Fatalf("NumStages %d, want %d", NumStages, len(want))
	}
	for i, w := range want {
		if Stage(i).String() != w {
			t.Errorf("Stage(%d).String() = %q, want %q", i, Stage(i).String(), w)
		}
	}
	if Stage(200).String() != "unknown" {
		t.Errorf("out-of-range stage = %q", Stage(200).String())
	}
}

func TestTracerRecordsStagesAndRings(t *testing.T) {
	tr := NewTracerSeeded(4, 1)
	for i := 0; i < 10; i++ {
		a := tr.StartWith("score", TraceContext{})
		a.Add(StageValidate, time.Duration(i+1)*time.Millisecond)
		a.Add(StageEncode, 100*time.Microsecond)
		a.SetBatch(i + 1)
		a.Finish(200)
	}
	validate, encode := tr.StageHistogram(StageValidate), tr.StageHistogram(StageEncode)
	if n := histCount(validate); n != 10 {
		t.Errorf("validate count %d, want 10", n)
	}
	if sum := time.Duration(validate.sum.Load()); sum != 55*time.Millisecond {
		t.Errorf("validate sum %v, want 55ms", sum)
	}
	if n, sum := histCount(encode), time.Duration(encode.sum.Load()); n != 10 || sum != time.Millisecond {
		t.Errorf("encode count/sum %d/%v", n, sum)
	}
	// score was never observed.
	if n := histCount(tr.StageHistogram(StageScore)); n != 0 {
		t.Errorf("score count %d, want 0", n)
	}

	recent, slowest := tr.TraceViews()
	if len(recent) != 4 || len(slowest) != 4 {
		t.Fatalf("rings recent=%d slowest=%d, want 4/4", len(recent), len(slowest))
	}
	// Newest first: the last finished trace had batch size 10.
	if recent[0].Batch != 10 || recent[3].Batch != 7 {
		t.Errorf("recent batches %d..%d, want 10..7", recent[0].Batch, recent[3].Batch)
	}
	for i := 1; i < len(slowest); i++ {
		if slowest[i-1].TotalMicros < slowest[i].TotalMicros {
			t.Errorf("slowest not sorted: %v before %v", slowest[i-1].TotalMicros, slowest[i].TotalMicros)
		}
	}
	if recent[0].Stages["validate"] <= 0 {
		t.Errorf("recent[0] stages %v missing validate", recent[0].Stages)
	}
	if _, ok := recent[0].Stages["score"]; ok {
		t.Errorf("zero stage rendered: %v", recent[0].Stages)
	}
}

func TestTracerStepAndMark(t *testing.T) {
	tr := NewTracerSeeded(2, 1)
	a := tr.StartWith("score", TraceContext{})
	time.Sleep(2 * time.Millisecond)
	a.Step(StageValidate)
	time.Sleep(2 * time.Millisecond)
	a.Mark() // interval measured elsewhere: must not leak into respond
	a.Step(StageRespond)
	validate := a.Stage(StageValidate)
	tc := a.Finish(200)
	if validate != tc.Stages[StageValidate] {
		t.Errorf("Stage(validate) = %v before Finish, trace records %v", validate, tc.Stages[StageValidate])
	}
	if tc.Stages[StageValidate] < time.Millisecond {
		t.Errorf("validate %v, want >= 1ms", tc.Stages[StageValidate])
	}
	if tc.Stages[StageRespond] > time.Millisecond {
		t.Errorf("respond %v absorbed the marked interval", tc.Stages[StageRespond])
	}
	if tc.Total < tc.Stages[StageValidate] {
		t.Errorf("total %v below validate %v", tc.Total, tc.Stages[StageValidate])
	}
	if tc.Status != 200 || tc.ID == 0 {
		t.Errorf("finish status/id %d/%d", tc.Status, tc.ID)
	}
}

func TestTracerNilSafe(t *testing.T) {
	var a *ActiveTrace
	a.Step(StageValidate)
	a.Add(StageEncode, time.Second)
	a.Mark()
	a.SetBatch(3)
	a.SetShed("deadline")
	a.SetModel(2)
	if a.Stage(StageEncode) != 0 {
		t.Error("nil trace has a stage time")
	}
	if a.ID() != 0 {
		t.Error("nil trace has an ID")
	}
	if a.Route() != "" {
		t.Error("nil trace has a route")
	}
	if tc := a.Finish(500); tc.Total != 0 {
		t.Error("nil Finish recorded a trace")
	}
}

func TestActiveTraceRoute(t *testing.T) {
	a := NewTracerSeeded(2, 1).StartWith("score", TraceContext{})
	if got := a.Route(); got != "score" {
		t.Errorf("Route() = %q, want %q", got, "score")
	}
	a.Finish(200)
}

func TestTracerSlowestKeepsMaxima(t *testing.T) {
	tr := NewTracerSeeded(2, 1)
	for _, d := range []time.Duration{time.Millisecond, 5 * time.Millisecond, 2 * time.Millisecond, 8 * time.Millisecond} {
		tr.record(Trace{Total: d})
	}
	_, slowest := tr.TraceViews()
	if len(slowest) != 2 {
		t.Fatalf("slowest len %d", len(slowest))
	}
	if slowest[0].TotalMicros != 8000 || slowest[1].TotalMicros != 5000 {
		t.Errorf("slowest = %v/%v µs, want 8000/5000", slowest[0].TotalMicros, slowest[1].TotalMicros)
	}
}

// TestSpanRecordingZeroAllocs is the hot-path allocation guard: a full
// Start → Step/Add → Finish cycle must not allocate in steady state (the
// recorder pool absorbs the only allocation on first use).
func TestSpanRecordingZeroAllocs(t *testing.T) {
	tr := NewTracerSeeded(32, 1)
	avg := testing.AllocsPerRun(1000, func() {
		a := tr.StartWith("score", TraceContext{})
		a.Step(StageValidate)
		a.Add(StageEncode, 20*time.Microsecond)
		a.Add(StageScore, 5*time.Microsecond)
		a.SetBatch(8)
		a.Mark()
		a.Step(StageRespond)
		a.Finish(200)
	})
	if avg != 0 {
		t.Fatalf("span recording allocates %.3f/op, want 0", avg)
	}
}

func TestTracerConcurrent(t *testing.T) {
	tr := NewTracerSeeded(16, 1)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				a := tr.StartWith("score", TraceContext{})
				a.Add(StageEncode, time.Microsecond)
				a.Finish(200)
			}
		}()
	}
	wg.Wait()
	if n := histCount(tr.StageHistogram(StageEncode)); n != 1600 {
		t.Errorf("encode count %d, want 1600", n)
	}
	recent, slowest := tr.TraceViews()
	if len(recent) != 16 || len(slowest) != 16 {
		t.Errorf("rings %d/%d, want 16/16", len(recent), len(slowest))
	}
}

func TestStageAccum(t *testing.T) {
	var acc StageAccum
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				acc.ObserveRecords(3, 6*time.Microsecond, 3*time.Microsecond)
			}
		}()
	}
	wg.Wait()
	enc, dist, n := acc.Totals()
	if n != 1200 || enc != 2400*time.Microsecond || dist != 1200*time.Microsecond {
		t.Errorf("totals enc=%v dist=%v n=%d", enc, dist, n)
	}
	acc.Reset()
	if enc, dist, n := acc.Totals(); n != 0 || enc != 0 || dist != 0 {
		t.Errorf("reset left enc=%v dist=%v n=%d", enc, dist, n)
	}
}
