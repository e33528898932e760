package core

import (
	"bytes"
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"arb/internal/naive"
	"arb/internal/storage"
	"arb/internal/testutil"
	"arb/internal/tmnf"
	"arb/internal/tree"
)

// runDisk evaluates e over db as a batch of one — the way every single
// query runs — with the given worker count (1 = the sequential scans).
func runDisk(e *Engine, db *storage.DB, workers int, opts DiskBatchOpts) (*Result, *DiskStats, error) {
	res, ds, err := RunDiskBatchParallel(context.Background(), db, workers, Solo(e), opts)
	if err != nil {
		return nil, nil, err
	}
	return res[0], ds, nil
}

// runTree evaluates e over an in-memory tree as a batch of one.
func runTree(e *Engine, t *tree.Tree, opts TreeBatchOpts) (*Result, error) {
	res, err := RunBatchTree(context.Background(), t, Solo(e), opts)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// diskRun builds a temporary .arb database from t and evaluates prog over
// it with the sequential disk kernel.
func diskRun(tb testing.TB, t *tree.Tree, prog *tmnf.Program, opts DiskBatchOpts) (*Result, *DiskStats, *storage.DB) {
	tb.Helper()
	base := filepath.Join(tb.TempDir(), "db")
	db, err := storage.CreateFromTree(base, t)
	if err != nil {
		tb.Fatalf("CreateFromTree: %v", err)
	}
	tb.Cleanup(func() { db.Close() })
	c, err := Compile(prog)
	if err != nil {
		tb.Fatalf("Compile: %v", err)
	}
	res, ds, err := runDisk(NewEngine(c, db.Names), db, 1, opts)
	if err != nil {
		tb.Fatalf("RunDiskBatch: %v", err)
	}
	return res, ds, db
}

// TestRunDiskMatchesMemoryAndNaive checks the disk and in-memory kernels
// each against the naive oracle.
func TestRunDiskMatchesMemoryAndNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 40; iter++ {
		tr := testutil.RandomTree(rng, 60)
		prog := testutil.RandomProgramParsed(rng, 4, 8)
		res, _, _ := diskRun(t, tr, prog, DiskBatchOpts{})

		want := naive.Evaluate(tr, prog)
		c, err := Compile(prog)
		if err != nil {
			t.Fatalf("Compile: %v", err)
		}
		mem, err := runTree(NewEngine(c, tr.Names()), tr, TreeBatchOpts{})
		if err != nil {
			t.Fatalf("RunBatchTree: %v", err)
		}
		sameResults(t, prog, tr.Len(), res, want, "disk vs naive")
		sameResults(t, prog, tr.Len(), mem, want, "memory vs naive")
	}
}

func TestRunDiskStackBoundedByDepth(t *testing.T) {
	// A right-deep chain (long sibling list) must not grow the scan
	// stacks: per Proposition 5.1 they are bounded by the XML document
	// depth, and sibling lists are depth-1 structures.
	tr := tree.New(nil)
	root := tr.AddNode(tr.Names().MustIntern("r"))
	prev := tree.None
	for i := 0; i < 500; i++ {
		n := tr.AddNode(tr.Names().MustIntern("a"))
		if prev == tree.None {
			tr.SetFirst(root, n)
		} else {
			tr.SetSecond(prev, n)
		}
		prev = n
	}
	prog := tmnf.MustParse(`QUERY :- Label[a], LastSibling;`)
	res, ds, _ := diskRun(t, tr, prog, DiskBatchOpts{})
	if n := res.Count(prog.Queries()[0]); n != 1 {
		t.Fatalf("selected %d nodes, want 1", n)
	}
	// Document depth is 2 (root + children); binary-tree depth is ~501.
	if ds.Phase1.MaxStack > 4 || ds.Phase2.MaxStack > 4 {
		t.Fatalf("scan stacks grew with sibling count: phase1=%d phase2=%d", ds.Phase1.MaxStack, ds.Phase2.MaxStack)
	}
}

func TestRunDiskStateFile(t *testing.T) {
	tr := tree.New(nil)
	root := tr.AddNode(tr.Names().MustIntern("a"))
	c1 := tr.AddNode(tr.Names().MustIntern("b"))
	tr.SetFirst(root, c1)
	prog := tmnf.MustParse(`QUERY :- Label[b];`)

	base := filepath.Join(t.TempDir(), "db")
	db, err := storage.CreateFromTree(base, tr)
	if err != nil {
		t.Fatalf("CreateFromTree: %v", err)
	}
	defer db.Close()
	cpl, err := Compile(prog)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	e := NewEngine(cpl, db.Names)

	// KeepStateFile retains a uniquely named state file with 4 bytes per
	// node, reported as Result.StateFile, holding every node's bottom-up
	// state in reverse preorder — the in-memory kernel's BUStateOf.
	want, err := runTree(e, tr, TreeBatchOpts{KeepStates: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		res, ds, err := runDisk(e, db, workers, DiskBatchOpts{KeepStateFile: true})
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		if res.StateFile == "" {
			t.Fatal("KeepStateFile run did not report Result.StateFile")
		}
		data, err := os.ReadFile(res.StateFile)
		if err != nil {
			t.Fatalf("state file not kept: %v", err)
		}
		if int64(len(data)) != db.N*stateWide || ds.StateBytes != int64(len(data)) {
			t.Fatalf("state file size %d, want %d (stats say %d)", len(data), db.N*stateWide, ds.StateBytes)
		}
		for v := int64(0); v < db.N; v++ {
			if got := getState(data[(db.N-1-v)*stateWide:], stateWide); got != want.BUStateOf[v] {
				t.Fatalf("workers %d: state file holds %d for node %d, memory run %d", workers, got, v, want.BUStateOf[v])
			}
		}
		os.Remove(res.StateFile)
	}

	// Default: the state file is removed after the run and no path is
	// reported.
	res2, _, err := runDisk(e, db, 1, DiskBatchOpts{})
	if err != nil {
		t.Fatalf("RunDiskBatch: %v", err)
	}
	if res2.StateFile != "" {
		t.Fatalf("default run reported state file %s", res2.StateFile)
	}
	entries, err := os.ReadDir(filepath.Dir(base))
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		if filepath.Ext(ent.Name()) == ".sta" {
			t.Fatalf("state file %s left behind", ent.Name())
		}
	}
}

func TestRunDiskRejectsForeignNames(t *testing.T) {
	tr := tree.New(nil)
	tr.AddNode(tr.Names().MustIntern("a"))
	base := filepath.Join(t.TempDir(), "db")
	db, err := storage.CreateFromTree(base, tr)
	if err != nil {
		t.Fatalf("CreateFromTree: %v", err)
	}
	defer db.Close()
	prog := tmnf.MustParse(`QUERY :- Label[a];`)
	c, err := Compile(prog)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	e := NewEngine(c, tree.NewNames()) // wrong table
	for _, workers := range []int{1, 2} {
		if _, _, err := runDisk(e, db, workers, DiskBatchOpts{}); err == nil {
			t.Fatalf("workers %d: run accepted mismatched name table", workers)
		}
	}
}

func TestRunDiskFailureInjection(t *testing.T) {
	tr := tree.New(nil)
	root := tr.AddNode(tr.Names().MustIntern("a"))
	tr.SetFirst(root, tr.AddNode(tr.Names().MustIntern("b")))
	base := filepath.Join(t.TempDir(), "db")
	db, err := storage.CreateFromTree(base, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	prog := tmnf.MustParse(`QUERY :- Label[b];`)
	c, err := Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(c, db.Names)

	// A kept state file survives the run; a failed run removes its own.
	res, _, err := runDisk(e, db, 1, DiskBatchOpts{KeepStateFile: true})
	if err != nil {
		t.Fatal(err)
	}
	os.Remove(res.StateFile)

	// State file in a directory that no longer exists: the database was
	// opened, then its directory removed underneath it.
	gone := filepath.Join(t.TempDir(), "gone")
	if err := os.Mkdir(gone, 0o755); err != nil {
		t.Fatal(err)
	}
	db2, err := storage.CreateFromTree(filepath.Join(gone, "db"), tr)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if err := os.RemoveAll(gone); err != nil {
		t.Fatal(err)
	}
	if _, _, err := runDisk(NewEngine(c, db2.Names), db2, 1, DiskBatchOpts{KeepStateFile: true}); err == nil {
		t.Fatal("run succeeded with an uncreatable state file")
	}
}

func TestRunDiskMarkedOutputInPhase2(t *testing.T) {
	// The marked-XML output produced during phase 2 must equal the
	// separate-scan EmitXML output.
	rng := rand.New(rand.NewSource(27))
	for iter := 0; iter < 10; iter++ {
		tr := testutil.RandomTree(rng, 60)
		prog := testutil.RandomProgramParsed(rng, 3, 6)
		base := filepath.Join(t.TempDir(), "db")
		db, err := storage.CreateFromTree(base, tr)
		if err != nil {
			t.Fatal(err)
		}
		c, err := Compile(prog)
		if err != nil {
			t.Fatal(err)
		}
		e := NewEngine(c, db.Names)
		var inPhase bytes.Buffer
		res, _, err := runDisk(e, db, 1, DiskBatchOpts{Mark: MarkOpts{To: &inPhase}})
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, prog, tr.Len(), res, naive.Evaluate(tr, prog), "marked run vs naive")
		var separate bytes.Buffer
		q := prog.Queries()[0]
		if err := storage.EmitXMLContext(context.Background(), db, &separate, func(v int64) bool {
			return res.Holds(q, tree.NodeID(v))
		}); err != nil {
			t.Fatal(err)
		}
		if inPhase.String() != separate.String() {
			t.Fatalf("iter %d:\nphase 2:  %s\nseparate: %s", iter, inPhase.String(), separate.String())
		}
		db.Close()
	}
}
