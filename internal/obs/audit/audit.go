// Package audit is the clinical decision audit trail: an append-only,
// hash-chained JSONL log with one canonical wide event per scoring
// decision — who asked (request and trace IDs), which model answered
// (version + artifact sha256), what happened (scored, shed, or error,
// with per-stage timings), and exactly what the answer was (the raw
// inputs, their digest, and the score down to its Float64bits), plus
// optional top-k explain contributions when the caller asked for them.
//
// Every line is an envelope {"e":<event>,"p":<prev>,"h":<hash>} where
// h = hex(sha256(p || e)) over the exact bytes written, so the log is
// tamper-evident: editing, dropping, or reordering any line breaks the
// chain, which `hdaudit verify` (and VerifyDir here) walks end to end.
// Events additionally carry a contiguous sequence number, so a removed
// tail is detectable too (the chain head recorded elsewhere no longer
// matches).
//
// The writer follows the repo's telemetry invariant: Enqueue offers the
// event to an obs.Handoff, the bounded, lossy queue the OTLP exporter and
// the shadow scorer use too; all disk I/O happens on its one worker
// goroutine; and overflow or write failure drops the event and counts it
// (hdfe_audit_dropped_total) — the audit trail is lossy by design
// because telemetry must never block scoring. Segments rotate by
// size, fsync policy is configurable (none, always, or interval), and
// reopening a directory recovers from a torn final line by truncating
// it and re-anchoring the chain on the last durable event. The chaos
// point `audit` fires in the worker before each write so disk faults
// are injectable deterministically.
package audit

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"hdfe/internal/chaos"
	"hdfe/internal/obs"
)

// Outcome classifies what the service did with a request.
type Outcome uint8

const (
	// OutcomeScored is a request that produced a score.
	OutcomeScored Outcome = iota
	// OutcomeShed is a request refused by admission control or deadline.
	OutcomeShed
	// OutcomeError is a request that failed (validation, internal).
	OutcomeError
	// OutcomeOK is a non-scoring decision that succeeded (feedback
	// ingest, model swap).
	OutcomeOK

	numOutcomes
)

var outcomeNames = [numOutcomes]string{"scored", "shed", "error", "ok"}

// Outcomes lists every outcome, for metric emission in a fixed order.
var Outcomes = []Outcome{OutcomeScored, OutcomeShed, OutcomeError, OutcomeOK}

// String returns the outcome's wire name.
func (o Outcome) String() string {
	if int(o) < int(numOutcomes) {
		return outcomeNames[o]
	}
	return "unknown"
}

// MarshalJSON renders the outcome as its wire name.
func (o Outcome) MarshalJSON() ([]byte, error) {
	return json.Marshal(o.String())
}

// UnmarshalJSON parses a wire name back to its Outcome.
func (o *Outcome) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for i, n := range outcomeNames {
		if s == n {
			*o = Outcome(i)
			return nil
		}
	}
	return fmt.Errorf("audit: unknown outcome %q", s)
}

// Stages carries the per-stage timings of one scored record, in
// microseconds (matching the latency scale of the serving histograms).
// They are the request trace's stage times, as /debug/traces shows them:
// validate covers reading, parsing and validating the body, and encode
// includes any stall before it. On /v1/score/batch each record carries
// an even share of its request's times.
type Stages struct {
	ValidateUs int64 `json:"validate_us"`
	EncodeUs   int64 `json:"encode_us"`
	ScoreUs    int64 `json:"score_us"`
}

// Contribution is one per-feature explain entry: the feature's raw
// value (nil when the input was missing) and its codeword similarity to
// the record hypervector, per core.ExplainRecord.
type Contribution struct {
	Feature    string   `json:"feature"`
	Value      *float64 `json:"value"`
	Similarity float64  `json:"similarity"`
}

// Event is one wide audit event. Score, ScoreBits, and Prediction are
// always present (never omitempty) so the schema is constant across
// outcomes; ScoreBits is the authoritative value for replay — Go's JSON
// round-trips float64 exactly, but bits dodge any formatting question.
type Event struct {
	Seq          uint64         `json:"seq"`
	TimeUnixNano int64          `json:"ts"`
	Route        string         `json:"route"`
	Outcome      Outcome        `json:"outcome"`
	Reason       string         `json:"reason,omitempty"`
	RequestID    string         `json:"request_id,omitempty"`
	TraceID      string         `json:"trace_id,omitempty"`
	ModelVersion uint64         `json:"model_version,omitempty"`
	ModelSHA256  string         `json:"model_sha256,omitempty"`
	Inputs       []*float64     `json:"inputs,omitempty"`
	InputsSHA256 string         `json:"inputs_sha256,omitempty"`
	Score        float64        `json:"score"`
	ScoreBits    uint64         `json:"score_bits"`
	Prediction   int            `json:"prediction"`
	Label        *int           `json:"label,omitempty"`
	Batch        int            `json:"batch,omitempty"`
	Stages       *Stages        `json:"stages,omitempty"`
	Explain      []Contribution `json:"explain,omitempty"`
}

// Inputs converts a validated row to its audit form: NaN (the fitted
// missing-value sentinel) becomes JSON null, everything else a value.
// The row is copied, so the caller may reuse its buffer.
func Inputs(row []float64) []*float64 {
	vals := make([]float64, len(row))
	out := make([]*float64, len(row))
	for i, v := range row {
		if math.IsNaN(v) {
			continue
		}
		vals[i] = v
		out[i] = &vals[i]
	}
	return out
}

// Row restores an audited input vector to scoring form: null → NaN.
func Row(in []*float64) []float64 {
	row := make([]float64, len(in))
	for i, p := range in {
		if p == nil {
			row[i] = math.NaN()
		} else {
			row[i] = *p
		}
	}
	return row
}

// FsyncPolicy selects when the worker fsyncs the active segment.
type FsyncPolicy uint8

const (
	// FsyncNone syncs only on rotation and close (fastest; an OS crash
	// can lose the last page of events).
	FsyncNone FsyncPolicy = iota
	// FsyncAlways syncs after every event (durable, slowest).
	FsyncAlways
	// FsyncEvery syncs on a timer (Config.FsyncEvery).
	FsyncEvery
)

// ParseFsync parses an fsync spec: "none", "always", or a Go duration
// for interval sync (e.g. "250ms").
func ParseFsync(s string) (FsyncPolicy, time.Duration, error) {
	switch s {
	case "", "none":
		return FsyncNone, 0, nil
	case "always":
		return FsyncAlways, 0, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil || d <= 0 {
		return 0, 0, fmt.Errorf("audit: bad fsync policy %q (want none|always|duration)", s)
	}
	return FsyncEvery, d, nil
}

// Config tunes a Log. The zero value of every field but Dir gets the
// default noted on it.
type Config struct {
	// Dir is the segment directory (required). Created if missing.
	Dir string
	// MaxBytes rotates the active segment before a line would push it
	// past this size (default 8 MiB).
	MaxBytes int64
	// QueueSize bounds the lossy event queue (default 4096 events).
	QueueSize int
	// Fsync selects the durability policy (default FsyncNone).
	Fsync FsyncPolicy
	// FsyncEvery is the interval for FsyncEvery (default 1s).
	FsyncEvery time.Duration
	// RingSize bounds the recent-events ring served by /debug/audit
	// (default 64).
	RingSize int
	// Chaos is the fault-injection seam, consulted before every write.
	Chaos *chaos.Injector
	// Logger, when set, receives sampled warnings about dropped events.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.MaxBytes <= 0 {
		c.MaxBytes = 8 << 20
	}
	if c.QueueSize <= 0 {
		c.QueueSize = 4096
	}
	if c.Fsync == FsyncEvery && c.FsyncEvery <= 0 {
		c.FsyncEvery = time.Second
	}
	if c.RingSize <= 0 {
		c.RingSize = 64
	}
	return c
}

// Log is the hash-chained audit writer. All exported methods are
// nil-safe, so a server without -audit-dir pays one branch per
// would-be event.
type Log struct {
	cfg Config

	q         *obs.Handoff[Event]
	events    [numOutcomes]atomic.Uint64
	rotations atomic.Uint64
	fsyncs    atomic.Uint64
	fsyncNs   atomic.Uint64

	// chainMu publishes the last durable line's sequence number and
	// hash as one pair, so no reader sees one event's seq with
	// another's hash.
	chainMu   sync.Mutex
	chainSeq  uint64
	chainHead string

	ringMu sync.Mutex
	ring   []Event
	ringN  int // total pushed; ring[(ringN-1)%len] is newest

	// Worker-goroutine-owned state.
	f         *os.File
	size      int64
	seg       int
	prev      string
	seq       uint64
	wedged    bool
	lastFsync time.Time
}

// Open creates (or reopens) the audit log in cfg.Dir and starts the
// writer worker. Reopening recovers from a torn final line: the newest
// segment is truncated back to its last line whose own hash verifies,
// and the chain re-anchors on that line's hash and sequence number.
// (Recovery validates only the tail it re-anchors on; whole-chain
// integrity is VerifyDir's job.)
func Open(cfg Config) (*Log, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, fmt.Errorf("audit: Dir is required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("audit: %v", err)
	}
	l := &Log{cfg: cfg}
	if err := l.recover(); err != nil {
		return nil, err
	}
	l.publish(l.seq, l.prev)
	l.q = obs.NewHandoff(cfg.QueueSize, l.loop)
	return l, nil
}

// recover scans existing segments, truncates a torn tail in the newest
// one, and adopts the last durable line's hash and sequence number as
// the chain anchor. The active segment is left open in append mode, so
// every write lands at its current end.
func (l *Log) recover() error {
	segs, err := segments(l.cfg.Dir)
	if err != nil {
		return err
	}
	l.seg = 1
	if n := len(segs); n > 0 {
		l.seg = segs[n-1].index
		tail, err := scanTail(segs[n-1].path)
		if err != nil {
			return err
		}
		if tail.events > 0 {
			l.seq, l.prev, l.size = tail.lastSeq, tail.lastHash, tail.validSize
		} else {
			// Newest segment holds nothing durable: empty it and anchor
			// on the most recent earlier segment with a valid tail.
			for i := n - 2; i >= 0; i-- {
				t, err := scanTail(segs[i].path)
				if err != nil {
					return err
				}
				if t.events > 0 {
					l.seq, l.prev = t.lastSeq, t.lastHash
					break
				}
			}
		}
	}
	path := segPath(l.cfg.Dir, l.seg)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("audit: %v", err)
	}
	if err := f.Truncate(l.size); err != nil {
		f.Close()
		return fmt.Errorf("audit: truncate torn tail: %v", err)
	}
	l.f = f
	return nil
}

// Enqueue offers one event for the audit trail without ever blocking:
// a full queue (or a closed log) drops the event and counts it, because
// a slow disk must shed audit records, not throttle scoring. Seq and
// (when zero) TimeUnixNano are assigned by the worker at write time.
func (l *Log) Enqueue(ev Event) {
	if l == nil {
		return
	}
	l.q.Offer(ev)
}

// Close stops accepting events, drains everything already queued to
// disk, fsyncs, and closes the active segment. Safe to call more than
// once; nil-safe.
func (l *Log) Close() {
	if l == nil {
		return
	}
	l.q.Close(context.Background())
}

// loop is the single writer goroutine: it drains the queue into the
// chain and applies the fsync policy. Closing the queue drains buffered
// events before exit, so Close flushes everything accepted.
func (l *Log) loop(queue <-chan Event) {
	var tick <-chan time.Time
	if l.cfg.Fsync == FsyncEvery {
		t := time.NewTicker(l.cfg.FsyncEvery)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case ev, ok := <-queue:
			if !ok {
				l.sync()
				l.f.Close()
				return
			}
			l.write(ev)
		case <-tick:
			l.sync()
		}
	}
}

// write appends one event to the chain. Any failure — an injected
// chaos fault, marshal, rotation, or the disk write itself — drops the
// event and counts it; the chain advances only on a durable line, so
// sequence numbers stay contiguous across drops.
func (l *Log) write(ev Event) {
	if l.wedged {
		l.drop(fmt.Errorf("audit: writer wedged"))
		return
	}
	if err := l.cfg.Chaos.Inject(chaos.PointAudit); err != nil {
		l.drop(err)
		return
	}
	ev.Seq = l.seq + 1
	if ev.TimeUnixNano == 0 {
		ev.TimeUnixNano = time.Now().UnixNano()
	}
	payload, err := json.Marshal(ev)
	if err != nil {
		l.drop(err)
		return
	}
	h := chainHash(l.prev, payload)
	line, err := json.Marshal(envelope{E: payload, P: l.prev, H: h})
	if err != nil {
		l.drop(err)
		return
	}
	line = append(line, '\n')
	if l.size > 0 && l.size+int64(len(line)) > l.cfg.MaxBytes {
		if err := l.rotate(); err != nil {
			l.drop(err)
			return
		}
	}
	if n, err := l.f.Write(line); err != nil {
		// A short write (full disk, file-size limit) would fuse this
		// torn line with the next event; truncating back restores the
		// append invariant, and append mode puts the next line at the
		// new end. If even that fails the segment is unusable — wedge
		// the writer so every later event drops instead of corrupting
		// the chain.
		if n > 0 && l.f.Truncate(l.size) != nil {
			l.wedged = true
		}
		l.drop(err)
		return
	}
	l.size += int64(len(line))
	l.seq = ev.Seq
	l.prev = h
	l.publish(ev.Seq, h)
	if int(ev.Outcome) < int(numOutcomes) {
		l.events[ev.Outcome].Add(1)
	}
	l.push(ev)
	if l.cfg.Fsync == FsyncAlways {
		l.sync()
	}
}

// rotate seals the active segment (fsync + close) and opens the next.
func (l *Log) rotate() error {
	l.sync()
	l.f.Close()
	l.seg++
	f, err := os.OpenFile(segPath(l.cfg.Dir, l.seg), os.O_CREATE|os.O_WRONLY|os.O_TRUNC|os.O_APPEND, 0o644)
	if err != nil {
		l.wedged = true
		return err
	}
	l.f = f
	l.size = 0
	l.rotations.Add(1)
	return nil
}

// sync fsyncs the active segment and records the latency.
func (l *Log) sync() {
	if l.f == nil {
		return
	}
	t0 := time.Now()
	if err := l.f.Sync(); err != nil {
		return
	}
	l.fsyncs.Add(1)
	l.fsyncNs.Add(uint64(time.Since(t0)))
	l.lastFsync = t0
}

// drop counts one lost event, logging a sampled warning so a dying
// disk is visible without flooding the log.
func (l *Log) drop(err error) {
	n := l.q.Drop(1)
	if l.cfg.Logger != nil && (n == 1 || n%1024 == 0) {
		l.cfg.Logger.Warn("audit event dropped", "err", err, "dropped", n)
	}
}

func (l *Log) publish(seq uint64, head string) {
	l.chainMu.Lock()
	l.chainSeq, l.chainHead = seq, head
	l.chainMu.Unlock()
}

// push records ev in the recent-events ring for /debug/audit.
func (l *Log) push(ev Event) {
	l.ringMu.Lock()
	if l.ring == nil {
		l.ring = make([]Event, l.cfg.RingSize)
	}
	l.ring[l.ringN%len(l.ring)] = ev
	l.ringN++
	l.ringMu.Unlock()
}

// Recent returns the most recent written events, newest first. Nil-safe.
func (l *Log) Recent() []Event {
	if l == nil {
		return nil
	}
	l.ringMu.Lock()
	defer l.ringMu.Unlock()
	n := l.ringN
	if n > len(l.ring) {
		n = len(l.ring)
	}
	out := make([]Event, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, l.ring[(l.ringN-1-i)%len(l.ring)])
	}
	return out
}

// Dir reports the segment directory. Nil-safe.
func (l *Log) Dir() string {
	if l == nil {
		return ""
	}
	return l.cfg.Dir
}

// Events reports how many events with outcome o have been written.
func (l *Log) Events(o Outcome) uint64 {
	if l == nil || int(o) >= int(numOutcomes) {
		return 0
	}
	return l.events[o].Load()
}

// Dropped reports events lost to queue overflow, chaos, or disk errors.
func (l *Log) Dropped() uint64 {
	if l == nil {
		return 0
	}
	return l.q.Dropped()
}

// Rotations reports how many segment rotations have happened.
func (l *Log) Rotations() uint64 {
	if l == nil {
		return 0
	}
	return l.rotations.Load()
}

// Chain reports the chain length and head as one pair: the sequence
// number of the last durable event (0 when empty) and that line's hash.
// Nil-safe.
func (l *Log) Chain() (seq uint64, head string) {
	if l == nil {
		return 0, ""
	}
	l.chainMu.Lock()
	defer l.chainMu.Unlock()
	return l.chainSeq, l.chainHead
}

// FsyncCount reports completed fsyncs.
func (l *Log) FsyncCount() uint64 {
	if l == nil {
		return 0
	}
	return l.fsyncs.Load()
}

// FsyncSeconds reports total time spent in fsync.
func (l *Log) FsyncSeconds() float64 {
	if l == nil {
		return 0
	}
	return float64(l.fsyncNs.Load()) / 1e9
}
