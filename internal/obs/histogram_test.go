package obs

import (
	"bytes"
	"math"
	"math/big"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// refBucket is the linear ladder loop Histogram replaced, kept as the
// reference for which Prometheus bucket a duration belongs to: bucket i
// ends at 50µs·2^i, and bucket 16 is the overflow.
func refBucket(d time.Duration) int {
	i := 0
	for i < 16 && d > 50*time.Microsecond<<uint(i) {
		i++
	}
	return i
}

// histCount is h's observation count.
func histCount(h *Histogram) uint64 {
	var n uint64
	for i := range h.slots {
		n += h.slots[i].Load()
	}
	return n
}

// withinEighthOctave reports whether d ≤ edge ≤ 2^(1/8)·d, exactly: the
// upper bound is checked as edge^8 ≤ 2·d^8 in integers.
func withinEighthOctave(edge, d int64) bool {
	if edge < d {
		return false
	}
	e8 := new(big.Int).Exp(big.NewInt(edge), big.NewInt(8), nil)
	d8 := new(big.Int).Exp(big.NewInt(d), big.NewInt(8), nil)
	return e8.Cmp(d8.Lsh(d8, 1)) <= 0
}

// lognormal draws a latency with the given median and log-space σ.
func lognormal(rng *rand.Rand, median time.Duration, sigma float64) time.Duration {
	return time.Duration(float64(median) * math.Exp(sigma*rng.NormFloat64()))
}

// FuzzHistogramSlot checks, for any duration, that the sub-bucket folds
// onto the reference ladder's bucket and, inside the ladder, that its
// upper edge is at least d and at most 2^(1/8)·d.
func FuzzHistogramSlot(f *testing.F) {
	for k := 0; k < 16; k++ {
		e := 50 * time.Microsecond << k
		f.Add(int64(e - 1))
		f.Add(int64(e))
		f.Add(int64(e + 1))
	}
	for _, d := range []time.Duration{0, 1, 1638400 * time.Microsecond, time.Hour} {
		f.Add(int64(d))
	}
	f.Fuzz(func(t *testing.T, n int64) {
		d := time.Duration(n)
		i := slot(d)
		if got, want := coarse(i), refBucket(d); got != want {
			t.Fatalf("%v: folds into bucket %d, reference ladder says %d", d, got, want)
		}
		if d > latencyBase && d <= latencyBase<<(numBuckets-1) && !withinEighthOctave(slotEdge[i], n) {
			t.Fatalf("%v: sub-bucket %d ends at %dns, want within [d, 2^(1/8)·d]", d, i, slotEdge[i])
		}
	})
}

// TestHistogramQuantileBoundedError feeds eight seeded lognormal latency
// sets of 100k samples (medians 0.3, 1, 1.5 and 3.5 ms, each at σ 0.3
// and 0.6). For q = 0.5, 0.9 and 0.99, Quantile(q) over the exact order
// statistic must lie in [1, 2^(1/8)].
func TestHistogramQuantileBoundedError(t *testing.T) {
	seed := int64(1)
	for _, median := range []time.Duration{300 * time.Microsecond, time.Millisecond, 1500 * time.Microsecond, 3500 * time.Microsecond} {
		for _, sigma := range []float64{0.3, 0.6} {
			rng := rand.New(rand.NewSource(seed))
			seed++
			var h Histogram
			xs := make([]int64, 100_000)
			for i := range xs {
				d := lognormal(rng, median, sigma)
				h.Observe(d, "")
				xs[i] = int64(d)
			}
			sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
			for _, q := range []float64{0.5, 0.9, 0.99} {
				exact := xs[int(math.Ceil(q*float64(len(xs))))-1]
				if got := h.Quantile(q); !withinEighthOctave(int64(got), exact) {
					t.Errorf("median %v σ %.1f: Quantile(%.2f) = %v, exact %v (ratio %.4f)",
						median, sigma, q, got, time.Duration(exact), float64(got)/float64(exact))
				}
			}
		}
	}
}

// TestHistogramExpositionMatchesLadder renders a histogram fed every
// ladder edge, its ±1ns neighbours, 0, an overflow sample and a
// lognormal spread, and compares it byte for byte with the reference
// ladder's counts on the same 16 le bounds, with the exact sum and
// count. One exemplar must sit on its sample's bucket.
func TestHistogramExpositionMatchesLadder(t *testing.T) {
	var h Histogram
	bounds := make([]float64, 16)
	counts := make([]uint64, 17)
	var sum time.Duration
	observe := func(d time.Duration) {
		h.Observe(d, "")
		counts[refBucket(d)]++
		sum += d
	}
	for k := range bounds {
		e := 50 * time.Microsecond << k
		bounds[k] = e.Seconds()
		observe(e - 1)
		observe(e)
		observe(e + 1)
	}
	observe(0)
	observe(time.Hour)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 10_000; i++ {
		observe(lognormal(rng, time.Millisecond, 1))
	}
	const exemplarAt = 3 * time.Millisecond
	h.Observe(exemplarAt, "4bf92f3577b34da6a3ce929d0e0e4736")
	counts[refBucket(exemplarAt)]++
	sum += exemplarAt

	ex := make([]*Exemplar, 17)
	for k := range ex {
		if e := h.ex[k].Load(); e != nil {
			if k != refBucket(exemplarAt) || e.Value != exemplarAt.Seconds() {
				t.Errorf("exemplar %+v on bucket %d, want bucket %d", e, k, refBucket(exemplarAt))
			}
			ex[k] = e
		}
	}
	var got, want bytes.Buffer
	h.WriteProm(NewPromWriter(&got), "x_seconds", "stage", "encode")
	NewPromWriter(&want).HistogramExemplars("x_seconds", bounds, counts, sum.Seconds(), ex, "stage", "encode")
	if got.String() != want.String() {
		t.Errorf("exposition differs from the reference ladder:\ngot:\n%s\nwant:\n%s", got.String(), want.String())
	}
	if n := histCount(&h); n != 16*3+2+10_000+1 {
		t.Errorf("count %d, want %d", n, 16*3+2+10_000+1)
	}
}
