package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"arb/internal/naive"
	"arb/internal/storage"
	"arb/internal/testutil"
	"arb/internal/tmnf"
	"arb/internal/tree"
	"arb/internal/workload"
)

// lowerParallelKnobs makes RunDiskBatchParallel take the real parallel
// path on tiny trees so the property tests exercise the chunked
// machinery.
func lowerParallelKnobs(t *testing.T) {
	t.Helper()
	minNodes, minTask := parMinNodes, parMinTask
	parMinNodes, parMinTask = 1, 1
	t.Cleanup(func() { parMinNodes, parMinTask = minNodes, minTask })
}

// oracle is the read side every evaluator's result shares: the kernel's
// Result and the naive fixpoint's.
type oracle interface {
	Holds(q tmnf.Pred, v tree.NodeID) bool
}

// sameResults asserts got selects exactly the nodes want does, for every
// query of prog, and that its eager counts agree.
func sameResults(t *testing.T, prog *tmnf.Program, n int, got *Result, want oracle, label string) {
	t.Helper()
	for _, q := range prog.Queries() {
		var count int64
		for v := 0; v < n; v++ {
			id := tree.NodeID(v)
			g, w := got.Holds(q, id), want.Holds(q, id)
			if g != w {
				t.Fatalf("%s: %s(%d)=%v, want %v\nprogram:\n%s", label, prog.PredName(q), v, g, w, prog)
			}
			if w {
				count++
			}
		}
		if got.Count(q) != count {
			t.Fatalf("%s: %s counted %d nodes, selected %d\nprogram:\n%s",
				label, prog.PredName(q), got.Count(q), count, prog)
		}
	}
}

func TestRunDiskParallelMatchesSequentialAndNaive(t *testing.T) {
	lowerParallelKnobs(t)
	rng := rand.New(rand.NewSource(71))
	for iter := 0; iter < 30; iter++ {
		tr := testutil.RandomTree(rng, 300)
		prog := testutil.RandomProgramParsed(rng, 4, 8)
		base := filepath.Join(t.TempDir(), "db")
		db, err := storage.CreateFromTree(base, tr)
		if err != nil {
			t.Fatal(err)
		}
		c, err := Compile(prog)
		if err != nil {
			t.Fatal(err)
		}

		want := naive.Evaluate(tr, prog)
		for _, workers := range []int{1, 2, 4, 7} {
			got, ds, err := runDisk(NewEngine(c, db.Names), db, workers, DiskBatchOpts{})
			if err != nil {
				t.Fatalf("iter %d workers %d: %v", iter, workers, err)
			}
			if ds.Phase1.Nodes != db.N || ds.Phase2.Nodes != db.N {
				t.Fatalf("iter %d workers %d: scans visited %d/%d nodes, want %d each",
					iter, workers, ds.Phase1.Nodes, ds.Phase2.Nodes, db.N)
			}
			sameResults(t, prog, tr.Len(), got, want, fmt.Sprintf("iter %d workers %d vs naive", iter, workers))
		}
		db.Close()
	}
}

func TestRunDiskParallelRightDeepChain(t *testing.T) {
	// Degenerate sibling chain: the frontier collapses toward tiny
	// first-child leaves and one big tail; results must still match.
	lowerParallelKnobs(t)
	tr := tree.New(nil)
	root := tr.AddNode(tr.Names().MustIntern("r"))
	prev := tree.None
	for i := 0; i < 2000; i++ {
		n := tr.AddNode(tr.Names().MustIntern([]string{"a", "b"}[i%2]))
		if prev == tree.None {
			tr.SetFirst(root, n)
		} else {
			tr.SetSecond(prev, n)
		}
		prev = n
	}
	prog := tmnf.MustParse(`QUERY :- Label[a], LastSibling; OTHER :- Label[b]; QUERY2 :- OTHER.NextSibling;`)
	if err := prog.SetQueries("QUERY", "QUERY2"); err != nil {
		t.Fatal(err)
	}
	base := filepath.Join(t.TempDir(), "db")
	db, err := storage.CreateFromTree(base, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	c, err := Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	want := naive.Evaluate(tr, prog)
	for _, workers := range []int{1, 4} {
		got, _, err := runDisk(NewEngine(c, db.Names), db, workers, DiskBatchOpts{})
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, prog, tr.Len(), got, want, fmt.Sprintf("chain, workers %d", workers))
	}
}

func TestRunDiskParallelLargeBalancedDefaults(t *testing.T) {
	// A balanced infix tree big enough to clear the default thresholds:
	// the headline case where chunks divide evenly.
	if testing.Short() {
		t.Skip("builds a 128k-node database")
	}
	tr := workload.InfixTree(workload.Sequence(4, 1<<17-1))
	base := filepath.Join(t.TempDir(), "infix")
	db, err := storage.CreateFromTree(base, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rx := workload.PathRegex{W1: []string{"A", "C"}, W2: []string{"G"}, W3: []string{"T", "A"}}
	prog, err := rx.Program(workload.RInfix)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	want := naive.Evaluate(tr, prog)
	for _, workers := range []int{1, 4} {
		got, ds, err := runDisk(NewEngine(c, db.Names), db, workers, DiskBatchOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if ds.Phase1.Nodes != db.N || ds.Phase2.Nodes != db.N {
			t.Fatalf("scans visited %d/%d nodes, want %d each", ds.Phase1.Nodes, ds.Phase2.Nodes, db.N)
		}
		sameResults(t, prog, tr.Len(), got, want, fmt.Sprintf("infix, workers %d", workers))
	}
}

func TestRunDiskParallelAuxFiles(t *testing.T) {
	// The aux sidecar pipeline (XPath negation's disk path) must select
	// what the naive oracle selects over the same aux labeling, and
	// stream exactly the aux output that selection implies, sequential
	// and parallel alike.
	lowerParallelKnobs(t)
	rng := rand.New(rand.NewSource(73))
	for iter := 0; iter < 10; iter++ {
		tr := testutil.RandomTree(rng, 200)
		dir := t.TempDir()
		base := filepath.Join(dir, "db")
		db, err := storage.CreateFromTree(base, tr)
		if err != nil {
			t.Fatal(err)
		}
		// Random input masks over 2 aux bits.
		auxIn := filepath.Join(dir, "in.aux")
		masks := make([]byte, 2*tr.Len())
		for v := 0; v < tr.Len(); v++ {
			binary.BigEndian.PutUint16(masks[2*v:], uint16(rng.Intn(4)))
		}
		if err := os.WriteFile(auxIn, masks, 0o644); err != nil {
			t.Fatal(err)
		}
		prog := tmnf.MustParse(`QUERY :- Aux[0]; P :- Aux[1]; QUERY2 :- P.FirstChild;`)
		if err := prog.SetQueries("QUERY", "QUERY2"); err != nil {
			t.Fatal(err)
		}
		c, err := Compile(prog)
		if err != nil {
			t.Fatal(err)
		}
		want := naive.EvaluateAux(tr, prog, func(v tree.NodeID) uint16 {
			return binary.BigEndian.Uint16(masks[2*v:])
		})
		wantOut := make([]byte, len(masks))
		q1 := prog.Queries()[1]
		for v := 0; v < tr.Len(); v++ {
			m := binary.BigEndian.Uint16(masks[2*v:])
			if want.Holds(q1, tree.NodeID(v)) {
				m |= 1 << 3
			}
			binary.BigEndian.PutUint16(wantOut[2*v:], m)
		}
		for _, workers := range []int{1, 3} {
			out := filepath.Join(dir, fmt.Sprintf("out%d.aux", workers))
			member := BatchMember{E: NewEngine(c, db.Names), AuxInSlot: 0, AuxOutSlot: 0, AuxOutBit: 3, AuxOutQuery: 1}
			res, _, err := RunDiskBatchParallel(context.Background(), db, workers, []BatchMember{member},
				DiskBatchOpts{AuxIn: auxIn, AuxInStride: 1, AuxOut: out, AuxOutStride: 1})
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, prog, tr.Len(), res[0], want, fmt.Sprintf("aux, workers %d", workers))
			got, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, wantOut) {
				t.Fatalf("iter %d workers %d: aux output differs from the oracle's selection", iter, workers)
			}
		}
		db.Close()
	}
}

func TestRunDiskConcurrentRunsShareDatabase(t *testing.T) {
	// Two concurrent default-option runs over one database must not
	// clobber each other's state files (the old default was a shared
	// base.sta).
	lowerParallelKnobs(t)
	rng := rand.New(rand.NewSource(79))
	tr := testutil.RandomTree(rng, 400)
	prog := testutil.RandomProgramParsed(rng, 4, 8)
	base := filepath.Join(t.TempDir(), "db")
	db, err := storage.CreateFromTree(base, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	c, err := Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	want := naive.Evaluate(tr, prog)
	var wg sync.WaitGroup
	errs := make([]error, 8)
	results := make([]*Result, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], _, errs[i] = runDisk(NewEngine(c, db.Names), db, 1+2*(i%2), DiskBatchOpts{})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		sameResults(t, prog, tr.Len(), results[i], want, "concurrent")
	}
	// No stray state files left next to the database.
	entries, err := os.ReadDir(filepath.Dir(base))
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		if strings.HasSuffix(ent.Name(), ".sta") {
			t.Fatalf("stray state file %s left behind", ent.Name())
		}
	}
}

func TestRunDiskParallelRecoversFromForeignIndex(t *testing.T) {
	// Swap the .arb underneath a same-node-count index (so the N check
	// cannot catch it): the run must detect the extent mismatch, rebuild
	// the index, and still select what the naive oracle selects.
	lowerParallelKnobs(t)
	names := tree.NewNames()
	balanced := workload.InfixTree(workload.Sequence(5, 1<<10-1))
	chain := tree.New(names)
	prev := tree.None
	for i := 0; i < balanced.Len(); i++ {
		n := chain.AddNode(chain.Names().MustIntern([]string{"l", "i", "p"}[i%3]))
		if prev == tree.None {
			prev = n
		} else {
			chain.SetSecond(prev, n)
			prev = n
		}
	}
	dir := t.TempDir()
	if _, err := storage.CreateFromTree(filepath.Join(dir, "bal"), balanced); err != nil {
		t.Fatal(err)
	}
	db, err := storage.CreateFromTree(filepath.Join(dir, "db"), chain)
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
	// The chain database keeps its .lab and node count, but its .arb and
	// .idx now disagree: the .arb is the balanced tree's.
	bal, err := os.ReadFile(filepath.Join(dir, "bal.arb"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "db.arb"), bal, 0o644); err != nil {
		t.Fatal(err)
	}
	balLab, err := os.ReadFile(filepath.Join(dir, "bal.lab"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "db.lab"), balLab, 0o644); err != nil {
		t.Fatal(err)
	}
	db, err = storage.Open(filepath.Join(dir, "db"))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	prog := tmnf.MustParse(`QUERY :- Label[A];`)
	c, err := Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	par, _, err := runDisk(NewEngine(c, db.Names), db, 4, DiskBatchOpts{})
	if err != nil {
		t.Fatalf("parallel run did not recover from the stale index: %v", err)
	}
	sameResults(t, prog, balanced.Len(), par, naive.Evaluate(balanced, prog), "foreign index")
	// The recovery must have rebuilt and re-persisted the sidecar: the
	// chain index had FirstSize 0 at the root, the balanced tree does not.
	ix, err := storage.ReadIndexFile(filepath.Join(dir, "db.idx"))
	if err != nil {
		t.Fatal(err)
	}
	if e, ok := ix.Lookup(0); !ok || e.FirstSize == 0 {
		t.Fatalf("index was not rebuilt from the swapped data: root entry %+v, ok=%v", e, ok)
	}
}

func TestRunDiskParallelFallsBackForMarkedOutput(t *testing.T) {
	// MarkTo is order-dependent streaming output: the parallel entry
	// point must still produce it (via the sequential path).
	lowerParallelKnobs(t)
	rng := rand.New(rand.NewSource(83))
	tr := testutil.RandomTree(rng, 80)
	prog := testutil.RandomProgramParsed(rng, 3, 6)
	base := filepath.Join(t.TempDir(), "db")
	db, err := storage.CreateFromTree(base, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	c, err := Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	want := naive.Evaluate(tr, prog)
	var wantXML bytes.Buffer
	q := prog.Queries()[0]
	if err := storage.EmitXMLContext(context.Background(), db, &wantXML, func(v int64) bool {
		return want.Holds(q, tree.NodeID(v))
	}); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		var xml bytes.Buffer
		res, _, err := runDisk(NewEngine(c, db.Names), db, workers, DiskBatchOpts{Mark: MarkOpts{To: &xml}})
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, prog, tr.Len(), res, want, fmt.Sprintf("marked, workers %d", workers))
		if xml.String() != wantXML.String() {
			t.Fatalf("workers %d: marked output differs:\ngot:  %s\nwant: %s", workers, xml.String(), wantXML.String())
		}
	}
}
