// Package bench regenerates the paper's experimental evaluation: the
// database-creation statistics of Figure 5 and the three query-benchmark
// threads of Figure 6 (top-down regular path queries on a Treebank-like
// database, bottom-up regular path queries on ACGT-flat, and sideways
// caterpillar queries on ACGT-infix).
//
// Absolute times cannot be compared with the paper's (a 2003 laptop);
// what must reproduce is the shape: creation cost linear in document
// size with fixed per-node file sizes (Figure 5); per-query evaluation
// time dominated by the two linear scans and nearly independent of query
// size after automaton warm-up, tiny transition tables for Treebank and
// ACGT-flat, large but still lazily-manageable ones for ACGT-infix, and
// identical selected counts between ACGT-flat and ACGT-infix (Figure 6).
//
// The harness is shared by cmd/arbbench (human-readable tables, any
// scale) and the repository's bench_test.go (testing.B integration).
package bench

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"arb/internal/core"
	"arb/internal/parallel"
	"arb/internal/storage"
	"arb/internal/tmnf"
	"arb/internal/tree"
	"arb/internal/workload"
)

// DefaultScale is the fraction of the paper's dataset sizes used when no
// scale is given: small enough for CI, large enough that scan costs
// dominate. Scale 1.0 reproduces the paper's sizes exactly (2^25-1
// sequence symbols, ~32M-node Treebank, ~307M-node Swissprot; needs
// ~2.5 GB of disk).
const DefaultScale = 1.0 / 32

// Fig5Row is one row of Figure 5 (database creation statistics).
type Fig5Row struct {
	Name      string
	ElemNodes int64
	CharNodes int64
	Tags      int
	Seconds   float64
	ArbBytes  int64
	LabBytes  int64
	EvtBytes  int64
}

// Fig5 creates the paper's four databases under dir at the given scale
// and reports the creation statistics. The returned base paths (keyed by
// row name) can be reused by Fig6 runs.
func Fig5(dir string, scale float64) ([]Fig5Row, map[string]string, error) {
	bases := map[string]string{}
	var rows []Fig5Row

	add := func(name string, stats *storage.CreateStats, base string) {
		bases[name] = base
		rows = append(rows, Fig5Row{
			Name:      name,
			ElemNodes: stats.ElemNodes,
			CharNodes: stats.CharNodes,
			Tags:      stats.Tags,
			Seconds:   stats.Duration.Seconds(),
			ArbBytes:  stats.ArbBytes,
			LabBytes:  stats.LabBytes,
			EvtBytes:  stats.EvtBytes,
		})
	}

	// Treebank-like.
	base := filepath.Join(dir, "treebank")
	db, stats, err := workload.CreateTreebankDB(base, workload.DefaultTreebank(scale))
	if err != nil {
		return nil, nil, fmt.Errorf("bench: treebank: %w", err)
	}
	db.Close()
	add("Treebank", stats, base)

	// ACGT: the paper's sequence has 2^25-1 symbols; keep the 2^k-1 form
	// so the infix tree is complete.
	bits := 25
	for scale < 1 && bits > 10 && float64(int64(1)<<25)*scale < float64(int64(1)<<bits) {
		bits--
	}
	seq := workload.Sequence(4, 1<<bits-1)

	for _, kind := range []string{"ACGT-infix", "ACGT-flat"} {
		base := filepath.Join(dir, kind)
		start := time.Now()
		var db *storage.DB
		var err error
		if kind == "ACGT-infix" {
			db, err = workload.CreateInfixDB(base, seq)
		} else {
			db, err = workload.CreateFlatDB(base, seq)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("bench: %s: %w", kind, err)
		}
		n := db.N
		labSize := int64(0)
		if st, err := os.Stat(base + ".lab"); err == nil {
			labSize = st.Size()
		}
		db.Close()
		// Direct binary creation has no event file; report the size the
		// paper's two-pass scheme would have used, for comparability.
		add(kind, &storage.CreateStats{
			ElemNodes: n,
			Tags:      5,
			Duration:  time.Since(start),
			ArbBytes:  n * storage.NodeSize,
			LabBytes:  labSize,
			EvtBytes:  2 * n * storage.NodeSize,
		}, base)
	}

	// Swissprot-like.
	base = filepath.Join(dir, "swissprot")
	db, stats, err = workload.CreateSwissprotDB(base, workload.DefaultSwissprot(scale))
	if err != nil {
		return nil, nil, fmt.Errorf("bench: swissprot: %w", err)
	}
	db.Close()
	add("SWISSPROT", stats, base)
	return rows, bases, nil
}

// WriteFig5 renders rows in the layout of Figure 5.
func WriteFig5(w io.Writer, rows []Fig5Row) {
	fmt.Fprintf(w, "%-12s %12s %12s %6s %9s %14s %9s %14s\n",
		"", "elem nodes", "char nodes", "tags", "time(s)", ".arb bytes", ".lab", ".evt bytes")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %12d %12d %6d %9.2f %14d %9d %14d\n",
			r.Name, r.ElemNodes, r.CharNodes, r.Tags, r.Seconds,
			r.ArbBytes, r.LabBytes, r.EvtBytes)
	}
}

// Thread selects one of the Figure 6 benchmark threads.
type Thread int

const (
	// Treebank: random top-down regular path queries over {NP,VP,PP,S},
	// R = FirstChild.NextSibling*.
	Treebank Thread = iota
	// ACGTFlat: the same regex classes over {A,C,G,T} matched bottom-up
	// (R = invNextSibling) in the flat sequence tree.
	ACGTFlat
	// ACGTInfix: the same regexes matched with the in-order-predecessor
	// caterpillar in the balanced infix tree.
	ACGTInfix
)

func (th Thread) String() string {
	switch th {
	case Treebank:
		return "Treebank"
	case ACGTFlat:
		return "ACGT-flat"
	case ACGTInfix:
		return "ACGT-infix"
	}
	return "?"
}

// RStep returns the thread's caterpillar step.
func (th Thread) RStep() string {
	switch th {
	case Treebank:
		return workload.RTreebank
	case ACGTFlat:
		return workload.RFlat
	}
	return workload.RInfix
}

// Alphabet returns the thread's query alphabet.
func (th Thread) Alphabet() []string {
	if th == Treebank {
		return workload.GrammarAlphabet
	}
	return workload.ACGTAlphabet
}

// Queries generates the thread's benchmark queries of one size. The
// generator is seeded by the query size only, so ACGTFlat and ACGTInfix
// receive the same regexes — the paper's column (9) cross-check depends
// on it.
func (th Thread) Queries(size, count int) []workload.PathRegex {
	rng := rand.New(rand.NewSource(int64(size)*1009 + 17))
	out := make([]workload.PathRegex, count)
	for i := range out {
		out[i] = workload.RandomPathRegex(rng, size, th.Alphabet())
	}
	return out
}

// Fig6Row is one row of Figure 6: averages over the queries of one size.
type Fig6Row struct {
	Size          int     // (1) regex size
	IDB           float64 // (2) IDB predicates in the TMNF program
	Rules         float64 // (3) rules
	Phase1Seconds float64 // (4) bottom-up time
	BUTransitions float64 // (5) bottom-up transitions computed lazily
	Phase2Seconds float64 // (6) top-down time
	TDTransitions float64 // (7) top-down transitions
	TotalSeconds  float64 // (8) wall time per query
	Selected      float64 // (9) nodes selected
	MemKB         float64 // (10) peak heap during the run (approximate)
}

// Fig6Opts configures a Figure 6 thread run.
type Fig6Opts struct {
	Sizes   []int // query sizes; the paper uses 5..15
	Queries int   // queries per size; the paper uses 25
	Scale   float64
	// InMemory evaluates over in-memory trees instead of .arb databases
	// on disk (the paper's runs are on disk; in-memory is for quick
	// checks and ablation).
	InMemory bool
	// Workers evaluates each query with that many parallel workers
	// (0 or 1 = sequential): core.RunDiskBatchParallel on disk,
	// parallel.RunBatchContext in memory. The selected counts are
	// identical either way.
	Workers int
	// Base reuses an existing database (from Fig5) instead of creating
	// one under Dir.
	Base string
	Dir  string
}

// DefaultSizes is the paper's query size range.
func DefaultSizes() []int {
	sizes := make([]int, 0, 11)
	for s := 5; s <= 15; s++ {
		sizes = append(sizes, s)
	}
	return sizes
}

// Fig6 runs one benchmark thread and returns one row per query size.
func Fig6(th Thread, opts Fig6Opts) ([]Fig6Row, error) {
	if opts.Scale == 0 {
		opts.Scale = DefaultScale
	}
	if len(opts.Sizes) == 0 {
		opts.Sizes = DefaultSizes()
	}
	if opts.Queries == 0 {
		opts.Queries = 25
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

	var rows []Fig6Row
	for _, size := range opts.Sizes {
		row := Fig6Row{Size: size}
		for _, rx := range th.Queries(size, opts.Queries) {
			prog, err := rx.Program(th.RStep())
			if err != nil {
				return nil, fmt.Errorf("bench: %s size %d: %w", th, size, err)
			}
			st := prog.Stats()
			row.IDB += float64(st.NumIDB)
			row.Rules += float64(st.NumRule)

			c, err := core.Compile(prog)
			if err != nil {
				return nil, err
			}
			e := core.NewEngine(c, db.Names)

			runtime.GC()
			var m0 runtime.MemStats
			runtime.ReadMemStats(&m0)

			start := time.Now()
			selected, err := evalQuery(e, db, prog.Queries()[0], opts)
			if err != nil {
				return nil, err
			}
			total := time.Since(start)

			var m1 runtime.MemStats
			runtime.ReadMemStats(&m1)
			heap := int64(m1.HeapAlloc) - int64(m0.HeapAlloc)
			if heap < 0 {
				heap = 0
			}

			es := e.Stats()
			row.Phase1Seconds += es.Phase1Time.Seconds()
			row.BUTransitions += float64(es.BUTransitions)
			row.Phase2Seconds += es.Phase2Time.Seconds()
			row.TDTransitions += float64(es.TDTransitions)
			row.TotalSeconds += total.Seconds()
			row.Selected += float64(selected)
			row.MemKB += float64(heap) / 1024
		}
		q := float64(opts.Queries)
		row.IDB /= q
		row.Rules /= q
		row.Phase1Seconds /= q
		row.BUTransitions /= q
		row.Phase2Seconds /= q
		row.TDTransitions /= q
		row.TotalSeconds /= q
		row.Selected /= q
		row.MemKB /= q
		rows = append(rows, row)
	}
	return rows, nil
}

// evalQuery runs one compiled query in the mode opts selects (in memory
// or on disk, sequential or with opts.Workers workers) and returns the
// selected count for query q — identical in every mode.
func evalQuery(e *core.Engine, db *storage.DB, q tmnf.Pred, opts Fig6Opts) (int64, error) {
	ctx := context.Background()
	var res []*core.Result
	var err error
	switch {
	case opts.InMemory:
		var t *tree.Tree
		if t, err = db.ReadTree(ctx); err != nil {
			return 0, err
		}
		if opts.Workers > 1 {
			res, err = parallel.RunBatchContext(ctx, t, opts.Workers, core.Solo(e), core.TreeBatchOpts{})
		} else {
			res, err = core.RunBatchTree(ctx, t, core.Solo(e), core.TreeBatchOpts{})
		}
	default:
		res, _, err = core.RunDiskBatchParallel(ctx, db, max(opts.Workers, 1), core.Solo(e), core.DiskBatchOpts{})
	}
	if err != nil {
		return 0, err
	}
	return res[0].Count(q), nil
}

// createThreadDB builds the database a thread runs against.
func createThreadDB(th Thread, dir string, scale float64) (string, error) {
	base := filepath.Join(dir, th.String())
	var db *storage.DB
	var err error
	switch th {
	case Treebank:
		db, _, err = workload.CreateTreebankDB(base, workload.DefaultTreebank(scale))
	default:
		bits := 25
		for scale < 1 && bits > 10 && float64(int64(1)<<25)*scale < float64(int64(1)<<bits) {
			bits--
		}
		seq := workload.Sequence(4, 1<<bits-1)
		if th == ACGTFlat {
			db, err = workload.CreateFlatDB(base, seq)
		} else {
			db, err = workload.CreateInfixDB(base, seq)
		}
	}
	if err != nil {
		return "", err
	}
	db.Close()
	return base, nil
}

// WriteFig6 renders rows in the layout of Figure 6.
func WriteFig6(w io.Writer, th Thread, rows []Fig6Row) {
	fmt.Fprintf(w, "%s queries.\n", th)
	fmt.Fprintf(w, "%4s %6s %6s | %8s %10s | %8s %10s | %8s %12s %10s\n",
		"size", "|IDB|", "|P|", "BU time", "BU trans", "TD time", "TD trans", "total", "selected", "mem KB")
	for _, r := range rows {
		fmt.Fprintf(w, "%4d %6.0f %6.0f | %8.3f %10.1f | %8.3f %10.1f | %8.3f %12.1f %10.1f\n",
			r.Size, r.IDB, r.Rules, r.Phase1Seconds, r.BUTransitions,
			r.Phase2Seconds, r.TDTransitions, r.TotalSeconds, r.Selected, r.MemKB)
	}
}
