// Package par runs index loops on a bounded goroutine pool: the one worker
// pool every parallel stage of the engine shares (leave-one-out folds,
// proximity targets, config sweeps, suite generation, instance preparation,
// tree training, level-2 sampling).
//
// Indices are handed out in increasing order from a shared counter, so a
// pool never idles while work remains. Which worker runs which index is a
// matter of scheduling; callers that need bit-identical results derive
// every random stream from the index, never from the worker.
package par

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker bound for a pool over n indices: workers when
// positive, GOMAXPROCS otherwise, capped at n so no goroutine starts idle,
// and at least 1.
func Workers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return max(min(workers, n), 1)
}

// For runs fn(worker, i) for every i in [0, n), each exactly once, on
// Workers(workers, n) goroutines; worker is the calling goroutine's id in
// [0, Workers(workers, n)). A single worker runs the loop inline. A failing
// index does not stop the others: For returns after every index has run,
// with the per-index errors joined in index order (nil when none failed).
func For(n, workers int, fn func(worker, i int) error) error {
	if n <= 0 {
		return nil
	}
	errs := make([]error, n)
	w := Workers(workers, n)
	if w == 1 {
		for i := range n {
			errs[i] = fn(0, i)
		}
		return errors.Join(errs...)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for worker := range w {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(worker, i)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}
