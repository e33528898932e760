package core

import (
	"context"
	"sync"
)

// Tuning knobs for the parallel frontier cut. Variables (not constants)
// so the package tests can exercise the full parallel machinery on small
// trees.
var (
	// parMinNodes is the database size below which RunDiskBatchParallel
	// delegates to the sequential scans — coordination would cost more
	// than it buys.
	parMinNodes int64 = 1 << 15
	// parMinTask is the smallest subtree worth dispatching as its own
	// chunk; smaller subtrees stay in the leader's glue scan.
	parMinTask int64 = 1 << 12
	// parTasksPerWorker oversizes the frontier so the pool stays busy
	// when chunks finish at different speeds.
	parTasksPerWorker int64 = 4
)

// RunPool fans n task indices out over a worker pool, stopping at the
// first error or when ctx is cancelled (in which case it reports
// ctx.Err() unless a task failed first). run receives the worker id so
// callers can give each goroutine private caches; it is shared with
// internal/parallel.
func RunPool(ctx context.Context, workers, n int, run func(worker, i int) error) error {
	if workers > n {
		workers = n
	}
	ch := make(chan int)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := range ch {
				mu.Lock()
				stop := firstErr != nil
				mu.Unlock()
				if stop || ctx.Err() != nil {
					continue
				}
				if err := run(worker, i); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}
		}(w)
	}
	for i := 0; i < n; i++ {
		ch <- i
	}
	close(ch)
	wg.Wait()
	if firstErr == nil {
		firstErr = ctx.Err()
	}
	return firstErr
}
