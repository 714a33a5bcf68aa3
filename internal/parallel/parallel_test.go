package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForVisitsEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 64, 1000} {
		visits := make([]int32, n)
		For(n, func(i int) { atomic.AddInt32(&visits[i], 1) })
		for i, v := range visits {
			if v != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, v)
			}
		}
	}
}

func TestForNegativeIsNoop(t *testing.T) {
	called := false
	For(-5, func(int) { called = true })
	if called {
		t.Fatal("body called for negative n")
	}
}

func TestForChunkedCoversRangeExactly(t *testing.T) {
	err := quick.Check(func(raw uint16) bool {
		n := int(raw % 2048)
		covered := make([]int32, n)
		ForChunked(n, func(lo, hi int) {
			if lo < 0 || hi > n || lo > hi {
				t.Errorf("bad chunk [%d,%d) for n=%d", lo, hi, n)
			}
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&covered[i], 1)
			}
		})
		for _, c := range covered {
			if c != 1 {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestWorkersBounds(t *testing.T) {
	if w := Workers(0); w != 1 {
		t.Fatalf("Workers(0) = %d, want 1", w)
	}
	if w := Workers(1); w != 1 {
		t.Fatalf("Workers(1) = %d, want 1", w)
	}
	max := runtime.GOMAXPROCS(0)
	if w := Workers(1 << 20); w != max {
		t.Fatalf("Workers(big) = %d, want GOMAXPROCS=%d", w, max)
	}
}

func BenchmarkForOverhead(b *testing.B) {
	var sink int64
	for i := 0; i < b.N; i++ {
		For(1024, func(j int) { atomic.AddInt64(&sink, int64(j)) })
	}
}
