package parallel

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"arb/internal/core"
	"arb/internal/naive"
	"arb/internal/testutil"
	"arb/internal/tmnf"
	"arb/internal/tree"
	"arb/internal/workload"
)

func engineFor(tb testing.TB, prog *tmnf.Program, names *tree.Names) *core.Engine {
	tb.Helper()
	c, err := core.Compile(prog)
	if err != nil {
		tb.Fatalf("Compile: %v", err)
	}
	return core.NewEngine(c, names)
}

// run evaluates e over t as a batch of one with the given number of
// workers; runSeq runs the sequential kernel (core.RunBatchTree).
func run(tb testing.TB, e *core.Engine, t *tree.Tree, workers int) *core.Result {
	tb.Helper()
	res, err := RunBatchContext(context.Background(), t, workers, core.Solo(e), core.TreeBatchOpts{})
	if err != nil {
		tb.Fatal(err)
	}
	return res[0]
}

func runSeq(tb testing.TB, e *core.Engine, t *tree.Tree) *core.Result {
	tb.Helper()
	res, err := core.RunBatchTree(context.Background(), t, core.Solo(e), core.TreeBatchOpts{})
	if err != nil {
		tb.Fatal(err)
	}
	return res[0]
}

// matchNaive asserts got selects exactly what the naive oracle selects.
func matchNaive(tb testing.TB, prog *tmnf.Program, t *tree.Tree, got *core.Result, want *naive.Result, label string) {
	tb.Helper()
	for _, q := range prog.Queries() {
		if g, w := got.Count(q), int64(want.Count(q)); g != w {
			tb.Fatalf("%s: %s selected %d nodes, naive %d\nprogram:\n%s", label, prog.PredName(q), g, w, prog)
		}
		for v := 0; v < t.Len(); v++ {
			if g, w := got.Holds(q, tree.NodeID(v)), want.Holds(q, tree.NodeID(v)); g != w {
				tb.Fatalf("%s node %d: %v, naive %v\nprogram:\n%s", label, v, g, w, prog)
			}
		}
	}
}

// TestRunMatchesSequential checks the worker pool and the sequential
// kernel, each against the naive oracle, on random trees and programs.
func TestRunMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for iter := 0; iter < 30; iter++ {
		tr := testutil.RandomTree(rng, 4000)
		prog := testutil.RandomProgramParsed(rng, 4, 8)
		want := naive.Evaluate(tr, prog)
		matchNaive(t, prog, tr, runSeq(t, engineFor(t, prog, tr.Names()), tr), want, fmt.Sprintf("iter %d sequential", iter))
		for _, workers := range []int{1, 2, 4, 7} {
			par := run(t, engineFor(t, prog, tr.Names()), tr, workers)
			matchNaive(t, prog, tr, par, want, fmt.Sprintf("iter %d workers %d", iter, workers))
		}
	}
}

func TestRunMatchesNaiveSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for iter := 0; iter < 25; iter++ {
		tr := testutil.RandomTree(rng, 50)
		prog := testutil.RandomProgramParsed(rng, 3, 6)
		par := run(t, engineFor(t, prog, tr.Names()), tr, 3)
		matchNaive(t, prog, tr, par, naive.Evaluate(tr, prog), fmt.Sprintf("iter %d", iter))
	}
}

// TestRunOnInfixSequence is the paper's parallel application: regular
// expression matching on a balanced infix tree.
func TestRunOnInfixSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	seq := workload.Sequence(6, 1<<12-1)
	tr := workload.InfixTree(seq)
	for i := 0; i < 5; i++ {
		r := workload.RandomPathRegex(rng, 5, workload.ACGTAlphabet)
		prog, err := r.Program(workload.RInfix)
		if err != nil {
			t.Fatal(err)
		}
		want := naive.Evaluate(tr, prog)
		matchNaive(t, prog, tr, runSeq(t, engineFor(t, prog, tr.Names()), tr), want, fmt.Sprintf("regex %s sequential", r))
		matchNaive(t, prog, tr, run(t, engineFor(t, prog, tr.Names()), tr, 4), want, fmt.Sprintf("regex %s parallel", r))
	}
}

// TestRunDegenerateChain exercises the right-deep case where the frontier
// decomposition finds little parallelism but must stay correct (and not
// overflow any recursion).
func TestRunDegenerateChain(t *testing.T) {
	tr := workload.FlatTree(workload.Sequence(7, 50000))
	prog := tmnf.MustParse(`QUERY :- Label[A], LastSibling;`)
	want := naive.Evaluate(tr, prog)
	matchNaive(t, prog, tr, run(t, engineFor(t, prog, tr.Names()), tr, 4), want, "parallel")
	matchNaive(t, prog, tr, runSeq(t, engineFor(t, prog, tr.Names()), tr), want, "sequential")
}

func TestSharedEngineConcurrentWarmup(t *testing.T) {
	// Repeated runs over the same engine must reuse the caches; run with
	// -race to exercise the locking.
	tr := workload.InfixTree(workload.Sequence(8, 1<<10-1))
	prog := tmnf.MustParse(`QUERY :- V.Label[A].` + "(FirstChild.SecondChild*.-HasSecondChild | -HasFirstChild.invFirstChild*.invSecondChild)" + `.Label[C];`)
	e := engineFor(t, prog, tr.Names())
	want := naive.Evaluate(tr, prog)
	for i := 0; i < 3; i++ {
		matchNaive(t, prog, tr, run(t, e, tr, 8), want, fmt.Sprintf("run %d", i))
	}
	if e.Stats().BUTransitions == 0 {
		t.Fatal("no transitions recorded")
	}
}
