package bench

import (
	"context"
	"fmt"
	"io"
	"time"

	"arb/internal/core"
	"arb/internal/storage"
)

// SpeedupRow reports one worker count of the parallel-disk speedup sweep.
type SpeedupRow struct {
	Workers  int
	Seconds  float64 // average wall time per query
	Speedup  float64 // sequential seconds / this row's seconds
	Selected float64 // average selected count (must match across rows)
}

// SpeedupOpts configures a speedup sweep.
type SpeedupOpts struct {
	Size    int // regex size (the paper's 5..15 range)
	Queries int // queries averaged per worker count
	Scale   float64
	Base    string // reuse an existing database; otherwise created in Dir
	Dir     string
}

// Speedup measures parallel secondary-storage evaluation against the
// sequential two-scan baseline on one benchmark thread: the same queries
// are evaluated per worker count (workers 1 = the sequential scans) and the
// average wall time compared. On the balanced ACGT-infix thread chunks
// divide evenly and the speedup approaches the worker count once the
// shared automata are warm; on ACGT-flat the right-deep tree defeats the
// frontier and the sweep documents that, matching Section 6.2.
func Speedup(th Thread, workerCounts []int, opts SpeedupOpts) ([]SpeedupRow, error) {
	if opts.Scale == 0 {
		opts.Scale = DefaultScale
	}
	if opts.Size == 0 {
		opts.Size = 10
	}
	if opts.Queries == 0 {
		opts.Queries = 5
	}
	base := opts.Base
	if base == "" {
		if opts.Dir == "" {
			return nil, fmt.Errorf("bench: need Base or Dir")
		}
		var err error
		base, err = createThreadDB(th, opts.Dir, opts.Scale)
		if err != nil {
			return nil, err
		}
	}
	db, err := storage.Open(base)
	if err != nil {
		return nil, err
	}
	defer db.Close()

	queries := th.Queries(opts.Size, opts.Queries)
	var rows []SpeedupRow
	for _, workers := range workerCounts {
		row := SpeedupRow{Workers: workers}
		for _, rx := range queries {
			prog, err := rx.Program(th.RStep())
			if err != nil {
				return nil, err
			}
			c, err := core.Compile(prog)
			if err != nil {
				return nil, err
			}
			e := core.NewEngine(c, db.Names)
			start := time.Now()
			res, _, err := core.RunDiskBatchParallel(context.Background(), db, workers, core.Solo(e), core.DiskBatchOpts{})
			if err != nil {
				return nil, err
			}
			selected := res[0].Count(prog.Queries()[0])
			row.Seconds += time.Since(start).Seconds()
			row.Selected += float64(selected)
		}
		q := float64(len(queries))
		row.Seconds /= q
		row.Selected /= q
		rows = append(rows, row)
	}
	for i := range rows {
		if rows[i].Seconds > 0 {
			rows[i].Speedup = rows[0].Seconds / rows[i].Seconds
		}
		if rows[i].Selected != rows[0].Selected {
			return nil, fmt.Errorf("bench: workers=%d selected %.1f nodes, sequential selected %.1f",
				rows[i].Workers, rows[i].Selected, rows[0].Selected)
		}
	}
	return rows, nil
}

// WriteSpeedup renders a speedup sweep.
func WriteSpeedup(w io.Writer, th Thread, rows []SpeedupRow) {
	fmt.Fprintf(w, "%s parallel disk evaluation.\n", th)
	fmt.Fprintf(w, "%8s %10s %8s %12s\n", "workers", "time(s)", "speedup", "selected")
	for _, r := range rows {
		fmt.Fprintf(w, "%8d %10.3f %8.2f %12.1f\n", r.Workers, r.Seconds, r.Speedup, r.Selected)
	}
}
