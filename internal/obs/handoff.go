package obs

import (
	"context"
	"sync"
	"sync/atomic"
)

// Handoff is a bounded, lossy queue drained by one worker goroutine: the
// hand-off from a request handler to the work it must never wait for.
// The shadow scorer, the OTLP span exporter and the audit writer each
// own one. Offer never blocks — a value offered to a full or closed
// queue is dropped and counted — so a slow sink sheds its own work
// instead of throttling scoring.
type Handoff[T any] struct {
	dropped atomic.Uint64

	mu     sync.RWMutex // guards closed vs. Offer, so close(queue) is safe
	closed bool
	queue  chan T
	done   chan struct{}
}

// NewHandoff starts work on its own goroutine, reading a queue of size
// values. work must return once the queue is closed and drained, which
// Close brings about.
func NewHandoff[T any](size int, work func(<-chan T)) *Handoff[T] {
	h := &Handoff[T]{queue: make(chan T, size), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		work(h.queue)
	}()
	return h
}

// Offer queues v for the worker without blocking. A full or closed queue
// drops v, counts it and reports false.
func (h *Handoff[T]) Offer(v T) bool {
	h.mu.RLock()
	defer h.mu.RUnlock()
	if !h.closed {
		select {
		case h.queue <- v:
			return true
		default:
		}
	}
	h.dropped.Add(1)
	return false
}

// Drop counts n values the worker lost after taking them off the queue
// (stale, failed to deliver) and returns the new total.
func (h *Handoff[T]) Drop(n uint64) uint64 { return h.dropped.Add(n) }

// Dropped reports every value lost: offered to a full or closed queue,
// or counted by the worker through Drop.
func (h *Handoff[T]) Dropped() uint64 { return h.dropped.Load() }

// Close stops intake, then waits until the worker has drained the queue
// and returned or until ctx ends, whichever comes first. Safe to call
// more than once.
func (h *Handoff[T]) Close(ctx context.Context) {
	h.mu.Lock()
	if !h.closed {
		h.closed = true
		close(h.queue)
	}
	h.mu.Unlock()
	select {
	case <-h.done:
	case <-ctx.Done():
	}
}
