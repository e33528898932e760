package parallel

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"arb/internal/core"
	"arb/internal/naive"
	"arb/internal/testutil"
	"arb/internal/tmnf"
	"arb/internal/tree"
)

// TestRunBatchMatchesSequentialBatch checks the worker-pool batch and
// core.RunBatchTree, each against the naive oracle, on random trees and
// random programs, including members with auxiliary masks.
func TestRunBatchMatchesSequentialBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	ctx := context.Background()
	for iter := 0; iter < 10; iter++ {
		tr := testutil.RandomTree(rng, 600)
		aux := make([]uint16, tr.Len())
		for i := range aux {
			aux[i] = uint16(rng.Intn(4))
		}
		auxFn := func(v tree.NodeID) uint16 { return aux[v] }
		// Each program gets two engines, so the sequential and the
		// parallel run each build their automata from scratch.
		var seq, par []core.BatchMember
		var progs []*tmnf.Program
		for i := 0; i < 4; i++ {
			prog := testutil.RandomProgramParsed(rng, 3, 6)
			c, err := core.Compile(prog)
			if err != nil {
				t.Fatal(err)
			}
			var auxf func(tree.NodeID) uint16
			if i%2 == 1 {
				auxf = auxFn
			}
			progs = append(progs, prog)
			seq = append(seq, core.BatchMember{E: core.NewEngine(c, tr.Names()), Aux: auxf, AuxInSlot: -1, AuxOutSlot: -1})
			par = append(par, core.BatchMember{E: core.NewEngine(c, tr.Names()), Aux: auxf, AuxInSlot: -1, AuxOutSlot: -1})
		}
		seqRes, err := core.RunBatchTree(ctx, tr, seq, core.TreeBatchOpts{})
		if err != nil {
			t.Fatal(err)
		}
		parRes, err := RunBatchContext(ctx, tr, 4, par, core.TreeBatchOpts{})
		if err != nil {
			t.Fatal(err)
		}
		for m, prog := range progs {
			want := naive.EvaluateAux(tr, prog, seq[m].Aux)
			matchNaive(t, prog, tr, seqRes[m], want, fmt.Sprintf("iter %d member %d sequential", iter, m))
			matchNaive(t, prog, tr, parRes[m], want, fmt.Sprintf("iter %d member %d parallel", iter, m))
		}
	}
}

// TestRunBatchCancel checks an already-cancelled context aborts the
// parallel batch with ctx.Err().
func TestRunBatchCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr := testutil.RandomTree(rng, 400)
	prog := testutil.RandomProgramParsed(rng, 3, 6)
	c, err := core.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = RunBatchContext(ctx, tr, 3, []core.BatchMember{
		{E: core.NewEngine(c, tr.Names()), AuxInSlot: -1, AuxOutSlot: -1},
	}, core.TreeBatchOpts{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v, want context.Canceled", err)
	}
}

// TestRunBatchKeepStates checks KeepStates on the worker pool: the kept
// per-node states equal the sequential kernel's, and every node's kept
// top-down state holds a query predicate exactly where the naive oracle
// selects the node.
func TestRunBatchKeepStates(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	ctx := context.Background()
	for iter := 0; iter < 10; iter++ {
		tr := testutil.RandomTree(rng, 2000)
		prog := testutil.RandomProgramParsed(rng, 3, 6)
		e := engineFor(t, prog, tr.Names())
		opts := core.TreeBatchOpts{KeepStates: true}
		want, err := core.RunBatchTree(ctx, tr, core.Solo(e), opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := RunBatchContext(ctx, tr, 3, core.Solo(e), opts)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got[0].BUStateOf, want[0].BUStateOf) || !slices.Equal(got[0].TDStateOf, want[0].TDStateOf) {
			t.Fatalf("iter %d: parallel kept states differ from sequential", iter)
		}
		oracle := naive.Evaluate(tr, prog)
		for _, q := range prog.Queries() {
			for v := 0; v < tr.Len(); v++ {
				if g, w := slices.Contains(e.TDSet(got[0].TDStateOf[v]), q), oracle.Holds(q, tree.NodeID(v)); g != w {
					t.Fatalf("iter %d node %d: kept state holds %s=%v, naive %v", iter, v, prog.PredName(q), g, w)
				}
			}
		}
	}
}
