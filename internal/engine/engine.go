// Package engine provides the bounded worker pool behind the study's
// embarrassingly parallel experiments — the Table 3/4 threshold sweeps,
// cross-validation folds and k-means restarts — and behind serving's
// model load, which decodes a directory's artifacts concurrently
// (serve.LoadDir, ReloadDir and PrepareDir). Tasks are indexed, results
// are returned in index order, and every task derives its randomness from
// its own index (or a per-task seed), so the output is bit-identical
// whatever the worker count — parallelism changes wall-clock time, never
// results.
package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Map runs fn(0) … fn(n-1) on up to workers goroutines and returns the
// results in index order. workers <= 0 selects GOMAXPROCS; workers == 1
// runs inline with no goroutines. On failure the pool stops claiming new
// tasks, the results are discarded, and the error of the lowest failing
// index is returned — deterministically, regardless of completion order:
// tasks are claimed in index order, so the lowest failing index is always
// claimed (and its error recorded) before any higher-index failure can
// halt the pool.
//
// fn must be safe for concurrent calls and should depend only on its index
// and immutable shared state; under that contract Map is deterministic.
func Map[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	out := make([]T, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			v, err := fn(i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i], errs[i] = fn(i)
				if errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
