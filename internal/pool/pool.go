// Package pool holds the repo's two concurrency primitives, built only on the
// standard library: ForEach, the one data-parallel loop, which gives every
// caller the result and the error of the serial loop, and Sem, the admission
// primitive the analysis service layers on top.
package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// MinParallelItems is the shared "not worth parallelizing" threshold: below
// this many independent work items the fan-out overhead (goroutines,
// per-worker state, cache traffic) exceeds what extra cores win back, so
// callers should take their sequential path outright. SIMT replay (per
// warp), the trace decoder (per thread section) and the analyzer's ingest
// (per thread) resolve their worker counts through Workers, which applies it.
const MinParallelItems = 8

// Workers resolves an effective worker count for `items` independent work
// units under a requested limit: a limit ≤ 0 means one worker per core
// (runtime.GOMAXPROCS(0), the convention shared with core.Options
// .Parallelism), the count never exceeds the item count, and item counts
// below MinParallelItems resolve to 1 — the sequential path.
func Workers(limit, items int) int {
	if items < MinParallelItems {
		return 1
	}
	n := limit
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > items {
		n = items
	}
	if n < 1 {
		n = 1
	}
	return n
}

// ForEach runs fn(worker, item) for every item in [0, items) on up to
// `workers` goroutines (≤ 0: one per core) and returns what the serial loop
// would: (items, nil) when every call succeeds, otherwise the lowest failing
// item and its error. Items are claimed through an atomic counter — work
// stealing: a worker that finishes early claims the next unclaimed item, so
// unevenly sized items cannot strand the pool behind one slow worker. A
// failure stops new claims; claimed items still finish. Claims go out in
// index order, so every item below a failing one was claimed and ran: the
// lowest failure seen is exactly the one the serial loop meets first. The
// worker index is stable per goroutine, letting callers keep per-worker
// state (accumulators, scratch buffers) without locks. With one worker
// ForEach is a plain loop in index order.
func ForEach(workers, items int, fn func(worker, item int) error) (int, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > items {
		workers = items
	}
	if workers <= 1 {
		for i := 0; i < items; i++ {
			if err := fn(0, i); err != nil {
				return i, err
			}
		}
		return items, nil
	}
	var next atomic.Int64
	var mu sync.Mutex
	failed, ferr := items, error(nil)
	var wg sync.WaitGroup
	wg.Add(workers)
	for k := 0; k < workers; k++ {
		go func(k int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= items {
					return
				}
				if err := fn(k, i); err != nil {
					next.Store(int64(items))
					mu.Lock()
					if i < failed {
						failed, ferr = i, err
					}
					mu.Unlock()
					return
				}
			}
		}(k)
	}
	wg.Wait()
	return failed, ferr
}
