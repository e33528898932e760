package core

import (
	"bufio"
	"context"
	"io"
	"os"
	"sync"

	"arb/internal/storage"
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

// gapsOf returns the complement of the (sorted, disjoint) task extents
// within [0, n) — the glue the leader scans itself.
func gapsOf(n int64, tasks []storage.Extent) []storage.Extent {
	var gaps []storage.Extent
	cur := int64(0)
	for _, t := range tasks {
		if t.Root > cur {
			gaps = append(gaps, storage.Extent{Root: cur, Size: t.Root - cur})
		}
		cur = t.End()
	}
	if cur < n {
		gaps = append(gaps, storage.Extent{Root: cur, Size: n - cur})
	}
	return gaps
}

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

// runWriter buffers WriteAt output that arrives in ascending runs with
// occasional jumps (the leader's scattered glue writes): contiguous bytes
// are batched through one buffered writer, and a jump flushes and
// restarts at the new offset. A nil file makes it a no-op sink.
type runWriter struct {
	f    *os.File
	w    *bufio.Writer
	next int64
	err  error
}

func (rw *runWriter) writeAt(p []byte, off int64) {
	if rw.f == nil || rw.err != nil {
		return
	}
	if rw.w == nil || off != rw.next {
		if rw.w != nil {
			if err := rw.w.Flush(); err != nil {
				rw.err = err
				return
			}
		}
		rw.w = bufio.NewWriterSize(io.NewOffsetWriter(rw.f, off), 1<<16)
		rw.next = off
	}
	if _, err := rw.w.Write(p); err != nil {
		rw.err = err
		return
	}
	rw.next = off + int64(len(p))
}

func (rw *runWriter) flush() error {
	if rw.err == nil && rw.w != nil {
		rw.err = rw.w.Flush()
	}
	return rw.err
}
