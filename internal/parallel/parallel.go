// Package parallel provides small, allocation-light helpers for data-parallel
// loops. Offline bulk work fans out across GOMAXPROCS workers in fixed
// contiguous chunks, which keeps per-item overhead negligible and memory
// access patterns sequential: the codebook's feature and batch encoders,
// the models, the cross-validation harness, the ablations' prototype
// leave-one-out and core.Deployment.ScoreBatch. The fit's 1-NN
// leave-one-out runs one For index per worker and deals the workers tiles
// of the distance triangle one at a time, so a worker that loses its CPU
// holds back one tile, not a fixed share. Serving paths do not fan
// out: a server's parallelism comes from its concurrent requests, so each
// request is scored on its own goroutine.
package parallel

import (
	"runtime"
	"sync"
)

// Workers returns the degree of parallelism used by For and friends:
// min(GOMAXPROCS, n) but at least 1.
func Workers(n int) int {
	w := runtime.GOMAXPROCS(0)
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// For runs body(i) for every i in [0, n), distributing contiguous index
// ranges across workers. It blocks until all iterations complete. body must
// be safe to call concurrently for distinct i. For n <= 1 or a single
// worker it runs inline, so small loops pay no goroutine cost.
func For(n int, body func(i int)) {
	ForChunked(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// ForChunked splits [0, n) into one contiguous [lo, hi) range per worker and
// runs body on each range concurrently. Use it when the body can amortize
// per-chunk setup (scratch buffers, accumulators).
func ForChunked(n int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	w := Workers(n)
	if w == 1 {
		body(0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + w - 1) / w
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
