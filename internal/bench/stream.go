package bench

import (
	"context"
	"fmt"
	"io"
	"time"

	"arb/internal/core"
	"arb/internal/storage"
	"arb/internal/stream"
	"arb/internal/tree"
)

// StreamComparisonRow compares, for one query size, the one-pass
// streaming matcher of [12] (internal/stream) with the two-pass automata
// engine on the same top-down Treebank path queries — the query class
// both systems can express. It quantifies the Section 1 trade-off: the
// stream processor saves a pass (and all temporary storage) but is
// limited to this class, while the engine pays two scans for full unary
// MSO.
type StreamComparisonRow struct {
	Size          int
	StreamSeconds float64 // one-pass DFA matching, avg per query
	EngineSeconds float64 // two-pass automata run, avg per query
	Matches       float64 // avg matches (must agree between the two)
	Agreed        bool
}

// StreamComparison runs the comparison over a Treebank database. The
// tree is materialised once (the stream side consumes it as an event
// stream; the engine side runs in memory too, so the comparison isolates
// per-node evaluation cost rather than I/O).
func StreamComparison(base string, sizes []int, queries int) ([]StreamComparisonRow, error) {
	db, err := storage.Open(base)
	if err != nil {
		return nil, err
	}
	defer db.Close()
	t, err := db.ReadTree(context.Background())
	if err != nil {
		return nil, err
	}

	var rows []StreamComparisonRow
	for _, size := range sizes {
		row := StreamComparisonRow{Size: size, Agreed: true}
		for _, rx := range Treebank.Queries(size, queries) {
			// One-pass streaming matcher.
			m, err := stream.Compile(rx.StreamQuery())
			if err != nil {
				return nil, fmt.Errorf("bench: stream compile %s: %w", rx, err)
			}
			sess := m.NewCountingSession()
			start := time.Now()
			if err := tree.Emit(t, sess); err != nil {
				return nil, err
			}
			row.StreamSeconds += time.Since(start).Seconds()

			// Two-pass engine on the equivalent TMNF program.
			prog, err := rx.Program(Treebank.RStep())
			if err != nil {
				return nil, err
			}
			c, err := core.Compile(prog)
			if err != nil {
				return nil, err
			}
			e := core.NewEngine(c, t.Names())
			start = time.Now()
			res, err := core.RunBatchTree(context.Background(), t, core.Solo(e), core.TreeBatchOpts{})
			if err != nil {
				return nil, err
			}
			row.EngineSeconds += time.Since(start).Seconds()

			engineCount := res[0].Count(prog.Queries()[0])
			if engineCount != sess.Count() {
				row.Agreed = false
			}
			row.Matches += float64(engineCount)
		}
		q := float64(queries)
		row.StreamSeconds /= q
		row.EngineSeconds /= q
		row.Matches /= q
		rows = append(rows, row)
	}
	return rows, nil
}

// WriteStreamComparison renders the comparison table.
func WriteStreamComparison(w io.Writer, rows []StreamComparisonRow) {
	fmt.Fprintf(w, "Stream (one-pass [12]) vs engine (two-pass MSO) on Treebank path queries.\n")
	fmt.Fprintf(w, "%4s %12s %12s %12s %8s\n", "size", "stream(s)", "engine(s)", "matches", "agreed")
	for _, r := range rows {
		fmt.Fprintf(w, "%4d %12.4f %12.4f %12.1f %8v\n",
			r.Size, r.StreamSeconds, r.EngineSeconds, r.Matches, r.Agreed)
	}
}
