package obs

import (
	"context"
	"sync"
	"testing"
	"time"
)

// TestHandoffCloseDrains pins the drain-on-close contract: every value
// accepted before Close reaches the worker before Close returns.
func TestHandoffCloseDrains(t *testing.T) {
	release := make(chan struct{})
	var got []int
	h := NewHandoff(8, func(q <-chan int) {
		<-release
		for v := range q {
			got = append(got, v)
		}
	})
	for i := 0; i < 8; i++ {
		if !h.Offer(i) {
			t.Fatalf("offer %d refused by an 8-deep queue", i)
		}
	}
	close(release)
	h.Close(context.Background())
	if len(got) != 8 || h.Dropped() != 0 {
		t.Fatalf("worker saw %v with %d dropped, want all 8 values and none dropped", got, h.Dropped())
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("worker saw %v, want 0..7 in order", got)
		}
	}
}

// TestHandoffFullQueueDrops pins the lossy contract: with the worker
// wedged, an offer to a full queue returns at once and is counted, and
// drops the worker reports through Drop land in the same count.
func TestHandoffFullQueueDrops(t *testing.T) {
	release := make(chan struct{})
	h := NewHandoff(2, func(q <-chan int) {
		<-release
		for range q {
		}
	})
	defer h.Close(context.Background())
	defer close(release)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 10; i++ {
			h.Offer(i)
		}
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Offer blocked on a full queue")
	}
	if n := h.Dropped(); n != 8 {
		t.Fatalf("dropped %d of 10 offers to a 2-deep wedged queue, want 8", n)
	}
	if n := h.Drop(3); n != 11 || h.Dropped() != 11 {
		t.Fatalf("Drop(3) = %d, Dropped = %d, want both 11", n, h.Dropped())
	}
}

// TestHandoffOfferAfterCloseDrops pins that a value offered after Close
// is counted as dropped rather than lost silently, and that a second
// Close is harmless.
func TestHandoffOfferAfterCloseDrops(t *testing.T) {
	h := NewHandoff(4, func(q <-chan int) {
		for range q {
		}
	})
	h.Close(context.Background())
	if h.Offer(1) {
		t.Fatal("a closed hand-off accepted a value")
	}
	if n := h.Dropped(); n != 1 {
		t.Fatalf("dropped %d after one offer to a closed hand-off, want 1", n)
	}
	h.Close(context.Background())
}

// TestHandoffCloseReturnsAtDeadline pins the bounded close: with the
// worker wedged, Close returns when ctx ends instead of waiting for the
// drain.
func TestHandoffCloseReturnsAtDeadline(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	h := NewHandoff(1, func(q <-chan int) {
		<-release
		for range q {
		}
	})
	h.Offer(1)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	returned := make(chan struct{})
	go func() {
		h.Close(ctx)
		close(returned)
	}()
	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		t.Fatal("Close waited on a wedged worker past its context deadline")
	}
}

// TestHandoffOfferRacesClose offers from many goroutines while Close runs:
// no offer may panic on the closed queue, and every offer is either seen
// by the worker or counted as dropped.
func TestHandoffOfferRacesClose(t *testing.T) {
	const writers, each = 8, 200
	var seen int
	h := NewHandoff(16, func(q <-chan int) {
		for range q {
			seen++
		}
	})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				h.Offer(i)
			}
		}()
	}
	h.Close(context.Background())
	wg.Wait()
	if total := uint64(seen) + h.Dropped(); total != writers*each {
		t.Fatalf("%d seen + %d dropped = %d, want %d offers", seen, h.Dropped(), total, writers*each)
	}
}
