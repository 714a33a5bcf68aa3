package audit

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hdfe/internal/chaos"
)

// openT opens a log in dir with test-friendly defaults, failing the
// test on error.
func openT(t *testing.T, cfg Config) *Log {
	t.Helper()
	l, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l
}

// scoredEvent builds a representative scored event.
func scoredEvent(i int) Event {
	score := float64(i) / 7.0
	return Event{
		Route:        "score",
		Outcome:      OutcomeScored,
		RequestID:    fmt.Sprintf("req-%04d", i),
		ModelVersion: 1,
		Inputs:       Inputs([]float64{float64(i), math.NaN(), 3.25}),
		InputsSHA256: InputsDigest([]float64{float64(i), math.NaN(), 3.25}),
		Score:        score,
		ScoreBits:    math.Float64bits(score),
		Prediction:   i % 2,
	}
}

func TestWriteVerifyRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, Config{Dir: dir})
	const n = 50
	for i := 0; i < n; i++ {
		l.Enqueue(scoredEvent(i))
	}
	l.Enqueue(Event{Route: "score", Outcome: OutcomeShed, Reason: "queue_full"})
	l.Enqueue(Event{Route: "feedback", Outcome: OutcomeOK, Reason: "accepted"})
	l.Close()

	res, err := VerifyDir(dir)
	if err != nil {
		t.Fatalf("VerifyDir: %v", err)
	}
	if res.Events != n+2 {
		t.Fatalf("verified %d events, want %d", res.Events, n+2)
	}
	if res.LastSeq != uint64(n+2) {
		t.Fatalf("last seq %d, want %d", res.LastSeq, n+2)
	}
	if res.Outcomes["scored"] != n || res.Outcomes["shed"] != 1 || res.Outcomes["ok"] != 1 {
		t.Fatalf("outcome census %v", res.Outcomes)
	}
	if seq, head := l.Chain(); res.Head == "" || res.Head != head || seq != res.LastSeq {
		t.Fatalf("chain %d/%q vs log chain %d/%q", res.LastSeq, res.Head, seq, head)
	}
	if got := l.Events(OutcomeScored); got != n {
		t.Fatalf("Events(scored) = %d, want %d", got, n)
	}
	if l.Dropped() != 0 {
		t.Fatalf("dropped %d events on a healthy disk", l.Dropped())
	}

	// Walk must see the events in order with the audited bits intact.
	seq := uint64(0)
	if _, err := Walk(dir, func(ev Event) error {
		seq++
		if ev.Seq != seq {
			return fmt.Errorf("seq %d out of order (want %d)", ev.Seq, seq)
		}
		if ev.Outcome == OutcomeScored && math.Float64bits(ev.Score) != ev.ScoreBits {
			return fmt.Errorf("seq %d: score %v does not round-trip its bits", ev.Seq, ev.Score)
		}
		return nil
	}); err != nil {
		t.Fatalf("Walk: %v", err)
	}
}

func TestRotationAtSizeBoundary(t *testing.T) {
	dir := t.TempDir()
	// Each envelope line is a few hundred bytes; 1 KiB forces frequent
	// rotation without depending on the exact line size.
	l := openT(t, Config{Dir: dir, MaxBytes: 1 << 10})
	const n = 40
	for i := 0; i < n; i++ {
		l.Enqueue(scoredEvent(i))
	}
	l.Close()

	if l.Rotations() == 0 {
		t.Fatal("no rotations at a 1 KiB segment cap")
	}
	segs, err := segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("%d segments, want several", len(segs))
	}
	// No segment may exceed the cap: rotation happens before the
	// overflowing line, not after it.
	for _, sg := range segs {
		fi, err := os.Stat(sg.path)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() > 1<<10 {
			t.Fatalf("%s is %d bytes, over the 1 KiB cap", sg.path, fi.Size())
		}
	}
	// The chain must thread across every boundary.
	res, err := VerifyDir(dir)
	if err != nil {
		t.Fatalf("VerifyDir across rotations: %v", err)
	}
	if res.Events != n || res.Segments != len(segs) {
		t.Fatalf("verified %d events across %d segments, want %d across %d",
			res.Events, res.Segments, n, len(segs))
	}
}

func TestReopenResumesChain(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, Config{Dir: dir})
	for i := 0; i < 5; i++ {
		l.Enqueue(scoredEvent(i))
	}
	l.Close()
	_, head1 := l.Chain()

	l2 := openT(t, Config{Dir: dir})
	if seq, head := l2.Chain(); seq != 5 || head != head1 {
		t.Fatalf("reopen anchored at seq %d head %s, want 5 %s", seq, head, head1)
	}
	for i := 5; i < 10; i++ {
		l2.Enqueue(scoredEvent(i))
	}
	l2.Close()

	res, err := VerifyDir(dir)
	if err != nil {
		t.Fatalf("VerifyDir after reopen: %v", err)
	}
	if res.Events != 10 || res.LastSeq != 10 {
		t.Fatalf("chain has %d events last seq %d, want 10/10", res.Events, res.LastSeq)
	}
}

// TestChainPairConsistent pins that Chain publishes the sequence number
// and head as one pair: a reader polling it while the worker writes only
// ever sees a pair that some line of the chain holds (or the empty
// chain's 0 and "").
func TestChainPairConsistent(t *testing.T) {
	const events = 20000
	dir := t.TempDir()
	l := openT(t, Config{Dir: dir, QueueSize: events})
	type pair struct {
		seq  uint64
		head string
	}
	seen := map[pair]bool{}
	done := make(chan struct{})
	polled := make(chan struct{})
	go func() {
		defer close(polled)
		for {
			select {
			case <-done:
				return
			default:
			}
			seq, head := l.Chain()
			seen[pair{seq, head}] = true
		}
	}()
	for i := 0; i < events; i++ {
		l.Enqueue(Event{Route: "score", Outcome: OutcomeScored, Prediction: i % 2})
	}
	l.Close()
	close(done)
	<-polled
	if l.Dropped() != 0 {
		t.Fatalf("%d events dropped behind a %d-event queue", l.Dropped(), events)
	}

	heads := map[uint64]string{0: ""}
	segs, err := segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, sg := range segs {
		data, err := os.ReadFile(sg.path)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n")) {
			var env envelope
			var ev Event
			if err := json.Unmarshal(line, &env); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(env.E, &ev); err != nil {
				t.Fatal(err)
			}
			heads[ev.Seq] = env.H
		}
	}
	if len(heads) != events+1 {
		t.Fatalf("chain holds %d lines, want %d", len(heads)-1, events)
	}
	torn := 0
	for p := range seen {
		if h, ok := heads[p.seq]; !ok || h != p.head {
			torn++
		}
	}
	if torn > 0 {
		t.Fatalf("%d of %d polled (seq, head) pairs match no line of the chain", torn, len(seen))
	}
}

func TestReopenTruncatesTornTail(t *testing.T) {
	for _, tc := range []struct {
		name string
		torn string
	}{
		{"partial line", `{"e":{"seq":9,"ts":1,"route":"sc`},
		{"complete line without newline", ""}, // filled below from a real line
		{"garbage", "\x00\x00\x00not json at all"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			l := openT(t, Config{Dir: dir})
			for i := 0; i < 8; i++ {
				l.Enqueue(scoredEvent(i))
			}
			l.Close()
			_, goodHead := l.Chain()

			path := segPath(dir, 1)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			torn := tc.torn
			if torn == "" {
				// A structurally valid line is still torn without its
				// newline: appending after it would fuse two events.
				lines := strings.SplitAfter(string(data), "\n")
				torn = strings.TrimSuffix(lines[0], "\n")
			}
			if err := os.WriteFile(path, append(data, torn...), 0o644); err != nil {
				t.Fatal(err)
			}

			l2 := openT(t, Config{Dir: dir})
			if seq, head := l2.Chain(); seq != 8 || head != goodHead {
				t.Fatalf("recovered at seq %d head %s, want 8 %s", seq, head, goodHead)
			}
			l2.Enqueue(scoredEvent(8))
			l2.Close()

			res, err := VerifyDir(dir)
			if err != nil {
				t.Fatalf("VerifyDir after torn-tail recovery: %v", err)
			}
			if res.Events != 9 || res.LastSeq != 9 {
				t.Fatalf("chain has %d events last seq %d, want 9/9", res.Events, res.LastSeq)
			}
		})
	}
}

func TestReopenEmptyNewestSegmentAnchorsOnPrevious(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, Config{Dir: dir, MaxBytes: 1 << 10})
	for i := 0; i < 20; i++ {
		l.Enqueue(scoredEvent(i))
	}
	l.Close()
	segs, err := segments(dir)
	if err != nil || len(segs) < 2 {
		t.Fatalf("want multiple segments, got %d (err %v)", len(segs), err)
	}
	// Corrupt the newest segment entirely: recovery must anchor on the
	// previous segment's tail, not restart the chain at genesis.
	if err := os.WriteFile(segs[len(segs)-1].path, []byte("garbage, no newline"), 0o644); err != nil {
		t.Fatal(err)
	}
	l2 := openT(t, Config{Dir: dir})
	if seq, head := l2.Chain(); seq == 0 || head == "" {
		t.Fatalf("recovery restarted at genesis (seq %d)", seq)
	}
	l2.Enqueue(scoredEvent(99))
	l2.Close()
	if _, err := VerifyDir(dir); err != nil {
		t.Fatalf("VerifyDir after empty-newest recovery: %v", err)
	}
}

func TestVerifyDetectsTampering(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, Config{Dir: dir})
	for i := 0; i < 10; i++ {
		l.Enqueue(scoredEvent(i))
	}
	l.Close()
	path := segPath(dir, 1)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("flipped byte", func(t *testing.T) {
		// Flip one digit inside the third line's event bytes.
		mod := []byte(string(data))
		lineStart := 0
		for i := 0; i < 2; i++ {
			lineStart += 1 + indexByte(mod[lineStart:], '\n')
		}
		idx := lineStart + 20
		if mod[idx] == 'x' {
			mod[idx] = 'y'
		} else {
			mod[idx] = 'x'
		}
		tampered := t.TempDir()
		if err := os.WriteFile(segPath(tampered, 1), mod, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := VerifyDir(tampered); err == nil {
			t.Fatal("verify passed a tampered chain")
		}
	})

	t.Run("deleted line", func(t *testing.T) {
		lines := strings.SplitAfter(string(data), "\n")
		mod := strings.Join(append(lines[:4:4], lines[5:]...), "")
		tampered := t.TempDir()
		if err := os.WriteFile(segPath(tampered, 1), []byte(mod), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := VerifyDir(tampered); err == nil {
			t.Fatal("verify passed a chain with a deleted line")
		}
	})

	t.Run("reordered lines", func(t *testing.T) {
		lines := strings.SplitAfter(string(data), "\n")
		lines[2], lines[3] = lines[3], lines[2]
		tampered := t.TempDir()
		if err := os.WriteFile(segPath(tampered, 1), []byte(strings.Join(lines, "")), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := VerifyDir(tampered); err == nil {
			t.Fatal("verify passed a chain with reordered lines")
		}
	})
}

func indexByte(b []byte, c byte) int {
	for i := range b {
		if b[i] == c {
			return i
		}
	}
	return -1
}

func TestChaosWriteFailuresDropWithoutBreakingChain(t *testing.T) {
	dir := t.TempDir()
	inj := chaos.New(7, chaos.Fault{Point: chaos.PointAudit, P: 0.3, Err: "injected disk failure"})
	l := openT(t, Config{Dir: dir, Chaos: inj})
	const n = 200
	for i := 0; i < n; i++ {
		l.Enqueue(scoredEvent(i))
	}
	l.Close()

	if inj.Fired(chaos.PointAudit) == 0 {
		t.Fatal("chaos point audit never fired at p=0.3 over 200 events")
	}
	if l.Dropped() == 0 {
		t.Fatal("no events counted dropped despite injected write failures")
	}
	res, err := VerifyDir(dir)
	if err != nil {
		t.Fatalf("VerifyDir with chaos drops: %v", err)
	}
	if got := uint64(res.Events) + l.Dropped(); got != n {
		t.Fatalf("written %d + dropped %d = %d, want %d", res.Events, l.Dropped(), got, n)
	}
	// Drops must not perforate the sequence: seq is assigned at write
	// time, after the chaos seam, so the chain stays contiguous.
	if res.LastSeq != uint64(res.Events) {
		t.Fatalf("last seq %d with %d events: drops perforated the sequence", res.LastSeq, res.Events)
	}
}

func TestQueueOverflowDropsWithoutBlocking(t *testing.T) {
	dir := t.TempDir()
	inj := chaos.New(1, chaos.Fault{Point: chaos.PointAudit, P: 1, Delay: 50 * time.Millisecond})
	l := openT(t, Config{Dir: dir, QueueSize: 4, Chaos: inj})
	// With the worker stalled 50ms per event, a burst must overflow the
	// 4-slot queue immediately rather than block.
	done := make(chan struct{})
	go func() {
		for i := 0; i < 64; i++ {
			l.Enqueue(scoredEvent(i))
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Enqueue blocked on a full queue")
	}
	if l.Dropped() == 0 {
		t.Fatal("no drops counted on queue overflow")
	}
	l.Close()
}

func TestEnqueueAfterCloseDrops(t *testing.T) {
	l := openT(t, Config{Dir: t.TempDir()})
	l.Close()
	l.Enqueue(scoredEvent(1)) // must not panic on the closed channel
	if l.Dropped() != 1 {
		t.Fatalf("dropped %d, want 1", l.Dropped())
	}
	l.Close() // double close is safe
}

func TestNilLogIsSafe(t *testing.T) {
	var l *Log
	l.Enqueue(scoredEvent(1))
	l.Close()
	if seq, head := l.Chain(); l.Dropped() != 0 || seq != 0 || head != "" || l.Dir() != "" ||
		l.Events(OutcomeScored) != 0 || l.Rotations() != 0 ||
		l.FsyncCount() != 0 || l.FsyncSeconds() != 0 || l.Recent() != nil {
		t.Fatal("nil Log accessors must return zero values")
	}
}

func TestInputsRowRoundTrip(t *testing.T) {
	row := []float64{1.5, math.NaN(), -0.0, 42, math.NaN()}
	back := Row(Inputs(row))
	if len(back) != len(row) {
		t.Fatalf("length %d, want %d", len(back), len(row))
	}
	for i := range row {
		if math.Float64bits(back[i]) != math.Float64bits(row[i]) && !(math.IsNaN(row[i]) && math.IsNaN(back[i])) {
			t.Fatalf("index %d: %v round-tripped to %v", i, row[i], back[i])
		}
	}
	if InputsDigest(row) != InputsDigest(back) {
		t.Fatal("digest changed across Inputs/Row round trip")
	}
	if InputsDigest(row) == InputsDigest([]float64{1.5, math.NaN(), -0.0, 42, 0}) {
		t.Fatal("digest ignores a changed value")
	}
}

func TestOutcomeJSONRoundTrip(t *testing.T) {
	for _, o := range Outcomes {
		b, err := o.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		var back Outcome
		if err := back.UnmarshalJSON(b); err != nil {
			t.Fatal(err)
		}
		if back != o {
			t.Fatalf("%s round-tripped to %s", o, back)
		}
	}
	var o Outcome
	if err := o.UnmarshalJSON([]byte(`"bogus"`)); err == nil {
		t.Fatal("unknown outcome name accepted")
	}
}

func TestParseFsync(t *testing.T) {
	for _, tc := range []struct {
		in      string
		policy  FsyncPolicy
		every   time.Duration
		wantErr bool
	}{
		{"", FsyncNone, 0, false},
		{"none", FsyncNone, 0, false},
		{"always", FsyncAlways, 0, false},
		{"250ms", FsyncEvery, 250 * time.Millisecond, false},
		{"2s", FsyncEvery, 2 * time.Second, false},
		{"-1s", 0, 0, true},
		{"0", 0, 0, true},
		{"sometimes", 0, 0, true},
	} {
		p, d, err := ParseFsync(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParseFsync(%q): no error", tc.in)
			}
			continue
		}
		if err != nil || p != tc.policy || d != tc.every {
			t.Errorf("ParseFsync(%q) = %v,%v,%v want %v,%v", tc.in, p, d, err, tc.policy, tc.every)
		}
	}
}

func TestFsyncPolicies(t *testing.T) {
	t.Run("always", func(t *testing.T) {
		l := openT(t, Config{Dir: t.TempDir(), Fsync: FsyncAlways})
		for i := 0; i < 5; i++ {
			l.Enqueue(scoredEvent(i))
		}
		l.Close()
		// 5 per-event syncs plus the close sync.
		if got := l.FsyncCount(); got < 5 {
			t.Fatalf("%d fsyncs under FsyncAlways, want >= 5", got)
		}
	})
	t.Run("interval", func(t *testing.T) {
		l := openT(t, Config{Dir: t.TempDir(), Fsync: FsyncEvery, FsyncEvery: 10 * time.Millisecond})
		for i := 0; i < 5; i++ {
			l.Enqueue(scoredEvent(i))
			time.Sleep(15 * time.Millisecond)
		}
		l.Close()
		if got := l.FsyncCount(); got < 2 {
			t.Fatalf("%d fsyncs under a 10ms interval over ~75ms, want >= 2", got)
		}
	})
}

func TestRecentRing(t *testing.T) {
	l := openT(t, Config{Dir: t.TempDir(), RingSize: 4})
	for i := 0; i < 10; i++ {
		l.Enqueue(scoredEvent(i))
	}
	l.Close()
	rec := l.Recent()
	if len(rec) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(rec))
	}
	// Newest first: seqs 10, 9, 8, 7.
	for i, ev := range rec {
		if want := uint64(10 - i); ev.Seq != want {
			t.Fatalf("ring[%d].Seq = %d, want %d", i, ev.Seq, want)
		}
	}
}

// fakeScorer replays with a fixed delta so divergences are forced.
type fakeScorer struct{ delta float64 }

func (f fakeScorer) Score(row []float64) float64 {
	s := f.delta
	for _, v := range row {
		if !math.IsNaN(v) {
			s += v / 100
		}
	}
	return s
}

func TestReplay(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, Config{Dir: dir})
	truth := fakeScorer{}
	const shaA, shaB = "sha-a", "sha-b"
	for i := 0; i < 20; i++ {
		row := []float64{float64(i), math.NaN(), 3.25}
		sha := shaA
		if i >= 15 { // simulate a hot-swap partway through
			sha = shaB
		}
		score := truth.Score(row)
		l.Enqueue(Event{
			Route: "score", Outcome: OutcomeScored,
			RequestID: fmt.Sprintf("req-%d", i), ModelSHA256: sha,
			Inputs: Inputs(row), InputsSHA256: InputsDigest(row),
			Score: score, ScoreBits: math.Float64bits(score),
		})
	}
	// Non-scored and input-less events must be skipped, not replayed.
	l.Enqueue(Event{Route: "score", Outcome: OutcomeShed, Reason: "queue_full"})
	l.Enqueue(Event{Route: "score", Outcome: OutcomeScored, ModelSHA256: shaA})
	l.Close()

	t.Run("attributed match", func(t *testing.T) {
		res, err := Replay(dir, truth, shaA)
		if err != nil {
			t.Fatal(err)
		}
		if res.Replayed != 15 || res.Matched != 15 || len(res.Divergences) != 0 {
			t.Fatalf("replayed %d matched %d diverged %d, want 15/15/0",
				res.Replayed, res.Matched, len(res.Divergences))
		}
		if res.SkippedModel != 5 || res.SkippedInput != 1 {
			t.Fatalf("skipped model %d input %d, want 5/1", res.SkippedModel, res.SkippedInput)
		}
	})

	t.Run("divergence detected", func(t *testing.T) {
		res, err := Replay(dir, fakeScorer{delta: 1e-9}, shaA)
		if err != nil {
			t.Fatal(err)
		}
		if res.Matched != 0 || len(res.Divergences) != 15 {
			t.Fatalf("a perturbed scorer matched %d and diverged %d, want 0/15", res.Matched, len(res.Divergences))
		}
		d := res.Divergences[0]
		if d.WantBits == d.GotBits || d.Seq == 0 || d.RequestID == "" {
			t.Fatalf("divergence not attributed: %+v", d)
		}
	})

	t.Run("all replays every model", func(t *testing.T) {
		res, err := Replay(dir, truth, "")
		if err != nil {
			t.Fatal(err)
		}
		if res.Replayed != 20 || res.SkippedModel != 0 {
			t.Fatalf("replayed %d skipped %d under empty sha, want 20/0", res.Replayed, res.SkippedModel)
		}
	})
}

func TestReplayDigestMismatch(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, Config{Dir: dir})
	row := []float64{1, 2, 3}
	l.Enqueue(Event{
		Route: "score", Outcome: OutcomeScored,
		Inputs:       Inputs(row),
		InputsSHA256: InputsDigest([]float64{1, 2, 4}), // wrong digest
		ScoreBits:    math.Float64bits(0.5),
	})
	l.Close()
	res, err := Replay(dir, fakeScorer{}, "")
	if err != nil {
		t.Fatal(err)
	}
	if res.DigestMismatch != 1 || res.Replayed != 0 {
		t.Fatalf("digest mismatch %d replayed %d, want 1/0", res.DigestMismatch, res.Replayed)
	}
}

func TestEnqueueDoesNotAllocate(t *testing.T) {
	l := openT(t, Config{Dir: t.TempDir(), QueueSize: 1 << 16})
	defer l.Close()
	ev := scoredEvent(1)
	if allocs := testing.AllocsPerRun(100, func() { l.Enqueue(ev) }); allocs != 0 {
		t.Fatalf("Enqueue allocates %.1f per call, want 0", allocs)
	}
}

func TestVerifyEmptyDir(t *testing.T) {
	res, err := VerifyDir(t.TempDir())
	if err != nil {
		t.Fatalf("VerifyDir on an empty dir: %v", err)
	}
	if res.Events != 0 || res.Segments != 0 || res.Head != "" {
		t.Fatalf("empty dir verified as %+v", res)
	}
}

func TestSegmentsIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"notes.txt", "audit-abc.jsonl", "audit-000001.json", "audit-1.jsonl"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Mkdir(filepath.Join(dir, "audit-000009.jsonl"), 0o755); err != nil {
		t.Fatal(err)
	}
	segs, err := segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 0 {
		t.Fatalf("segments picked up foreign files: %v", segs)
	}
}
