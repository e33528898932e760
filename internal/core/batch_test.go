package core

import (
	"context"
	"math/rand"
	"path/filepath"
	"testing"

	"arb/internal/naive"
	"arb/internal/storage"
	"arb/internal/testutil"
	"arb/internal/tmnf"
	"arb/internal/tree"
)

// batchPrograms draws count random programs.
func batchPrograms(t *testing.T, rng *rand.Rand, count int) []*tmnf.Program {
	t.Helper()
	progs := make([]*tmnf.Program, count)
	for i := range progs {
		progs[i] = testutil.RandomProgramParsed(rng, 3, 6)
	}
	return progs
}

func batchMembers(t *testing.T, progs []*tmnf.Program, names *tree.Names) []BatchMember {
	t.Helper()
	members := make([]BatchMember, len(progs))
	for i, prog := range progs {
		c, err := Compile(prog)
		if err != nil {
			t.Fatal(err)
		}
		members[i] = BatchMember{E: NewEngine(c, names), AuxInSlot: -1, AuxOutSlot: -1}
	}
	return members
}

// TestBatchMatchesScalarAndNaive is the core-level differential test: the
// three batch strategies and per-program solo runs (batches of one, the
// way a single query executes) each select exactly the nodes the naive
// fixpoint oracle does, on random trees and programs.
func TestBatchMatchesScalarAndNaive(t *testing.T) {
	lowerParallelKnobs(t)
	rng := rand.New(rand.NewSource(2024))
	ctx := context.Background()
	for iter := 0; iter < 12; iter++ {
		tr := testutil.RandomTree(rng, 400)
		progs := batchPrograms(t, rng, 3+rng.Intn(4))
		base := filepath.Join(t.TempDir(), "db")
		db, err := storage.CreateFromTree(base, tr)
		if err != nil {
			t.Fatal(err)
		}

		// Solo runs, one engine per program, against the oracle.
		want := make([]*naive.Result, len(progs))
		for i, prog := range progs {
			want[i] = naive.Evaluate(tr, prog)
			c, err := Compile(prog)
			if err != nil {
				t.Fatal(err)
			}
			solo, err := runTree(NewEngine(c, db.Names), tr, TreeBatchOpts{})
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, prog, tr.Len(), solo, want[i], "solo vs naive")
		}

		memRes, err := RunBatchTree(ctx, tr, batchMembers(t, progs, db.Names), TreeBatchOpts{})
		if err != nil {
			t.Fatal(err)
		}
		diskRes, ds, err := RunDiskBatch(ctx, db, batchMembers(t, progs, db.Names), DiskBatchOpts{})
		if err != nil {
			t.Fatal(err)
		}
		parRes, pds, err := RunDiskBatchParallel(ctx, db, 4, batchMembers(t, progs, db.Names), DiskBatchOpts{})
		if err != nil {
			t.Fatal(err)
		}
		for i, prog := range progs {
			sameResults(t, prog, tr.Len(), memRes[i], want[i], "batch-memory vs naive")
			sameResults(t, prog, tr.Len(), diskRes[i], want[i], "batch-disk vs naive")
			sameResults(t, prog, tr.Len(), parRes[i], want[i], "batch-parallel-disk vs naive")
		}

		// One aggregate pair of linear scans for the whole batch, however
		// many members and workers: every .arb byte is read or
		// provably-irrelevant-and-skipped exactly once per phase.
		for name, d := range map[string]*DiskStats{"sequential": ds, "parallel": pds} {
			p1 := d.Phase1.Bytes + d.Phase1.SkippedBytes
			p2 := d.Phase2.Bytes + d.Phase2.SkippedBytes
			if p1 != db.N*storage.NodeSize || p2 != db.N*storage.NodeSize {
				t.Fatalf("iter %d %s: scans covered %d/%d bytes, want %d each",
					iter, name, p1, p2, db.N*storage.NodeSize)
			}
		}
		db.Close()
	}
}

// TestBatchWideStateFallback forces the wide state layout and checks the
// run still agrees with the naive oracle.
func TestBatchWideStateFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tr := testutil.RandomTree(rng, 300)
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
	e := NewEngine(c, db.Names)
	// An engine that already interned states near the 16-bit limit makes
	// batchStateWidth pick the wide layout up front.
	for len(e.buStates) < 1<<16-256 {
		e.buStates = append(e.buStates, nil)
	}
	members := []BatchMember{{E: e, AuxInSlot: -1, AuxOutSlot: -1}}
	if batchStateWidth(members, DiskBatchOpts{}) != stateWide {
		t.Fatal("padded engine did not select the wide state layout")
	}
	res, _, err := RunDiskBatch(context.Background(), db, members, DiskBatchOpts{})
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, prog, tr.Len(), res[0], naive.Evaluate(tr, prog), "wide-state batch vs naive")
}
