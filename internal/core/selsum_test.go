package core

import (
	"math/rand"
	"testing"

	"arb/internal/testutil"
	"arb/internal/tmnf"
	"arb/internal/tree"
)

// selSummaryFor compiles src against names and runs the analysis.
func selSummaryFor(t *testing.T, src string, names *tree.Names) *SelSummary {
	t.Helper()
	c, err := Compile(tmnf.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	return NewEngine(c, names).SelectionSummary()
}

// namesWith returns a name table knowing the given tags.
func namesWith(t *testing.T, tags ...string) *tree.Names {
	t.Helper()
	names := tree.NewNames()
	for _, tag := range tags {
		if _, err := names.Intern(tag); err != nil {
			t.Fatal(err)
		}
	}
	return names
}

// descendantsLabeled is the TMNF rendering of //a: every non-root node
// labeled a (D closes downward from the root's children).
const descendantsLabeled = `
R :- Root;
D :- R.FirstChild;
D :- R.SecondChild;
D :- D.FirstChild;
D :- D.SecondChild;
QUERY :- D, Label[a];
`

func TestSelSummaryLabel(t *testing.T) {
	names := namesWith(t, "a", "b")
	sum := selSummaryFor(t, `QUERY :- Label[a];`, names)
	if sum == nil {
		t.Fatal("QUERY :- Label[a] admits no summary")
	}
	la, _ := names.Lookup("a")
	lb, _ := names.Lookup("b")
	for _, isRoot := range []bool{false, true} {
		if !sum.Selected(la, isRoot) {
			t.Errorf("Selected(a, root=%v) = false, want true", isRoot)
		}
		if sum.Selected(lb, isRoot) {
			t.Errorf("Selected(b, root=%v) = true, want false", isRoot)
		}
		if sum.Selected(tree.Label('x'), isRoot) {
			t.Errorf("Selected('x', root=%v) = true, want false", isRoot)
		}
	}
}

func TestSelSummaryNonRootLabel(t *testing.T) {
	names := namesWith(t, "a", "b")
	sum := selSummaryFor(t, descendantsLabeled, names)
	if sum == nil {
		t.Fatal("//a-shaped program admits no summary")
	}
	la, _ := names.Lookup("a")
	if !sum.Selected(la, false) {
		t.Error("Selected(a, child) = false, want true")
	}
	if sum.Selected(la, true) {
		t.Error("Selected(a, root) = true, want false (a root is nobody's child)")
	}
}

func TestSelSummaryText(t *testing.T) {
	names := namesWith(t, "a")
	sum := selSummaryFor(t, `QUERY :- Text;`, names)
	if sum == nil {
		t.Fatal("QUERY :- Text admits no summary")
	}
	la, _ := names.Lookup("a")
	if !sum.Selected(tree.Label('x'), false) || !sum.Selected(tree.Label('y'), true) {
		t.Error("character labels must be selected")
	}
	if sum.Selected(la, false) {
		t.Error("named labels must not be selected")
	}
}

// Context- and shape-dependent selections must refuse a summary rather
// than hand out wrong verdicts.
func TestSelSummaryInadmissible(t *testing.T) {
	names := namesWith(t, "a")
	for _, src := range []string{
		`P :- Root; QUERY :- P.FirstChild;`, // positional: first child of root only
		`QUERY :- Leaf;`,                    // shape: depends on HasFirstChild
		`QUERY :- Label[a], HasSecondChild;`,
	} {
		if sum := selSummaryFor(t, src, names); sum != nil {
			t.Errorf("%s: got a summary, want nil", src)
		}
	}
}

func TestSelSummaryMultiQueryNil(t *testing.T) {
	names := namesWith(t, "a")
	p := tmnf.MustParse(`Query1 :- Label[a]; Query2 :- Root;`)
	if err := p.SetQueries("Query1", "Query2"); err != nil {
		t.Fatal(err)
	}
	c, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	if sum := NewEngine(c, names).SelectionSummary(); sum != nil {
		t.Error("multi-query program: got a summary, want nil")
	}
}

func TestSubsumes(t *testing.T) {
	names := namesWith(t, "a", "b")
	labelA := selSummaryFor(t, `QUERY :- Label[a];`, names)
	labelB := selSummaryFor(t, `QUERY :- Label[b];`, names)
	nonRootA := selSummaryFor(t, descendantsLabeled, names)
	all := selSummaryFor(t, `QUERY :- V;`, names)
	for _, s := range []*SelSummary{labelA, labelB, nonRootA, all} {
		if s == nil {
			t.Fatal("missing summary")
		}
	}
	cases := []struct {
		name string
		q, s *SelSummary
		want bool
	}{
		{"nonRootA ⊆ labelA", nonRootA, labelA, true},
		{"labelA ⊄ nonRootA", labelA, nonRootA, false},
		{"labelA ⊄ labelB", labelA, labelB, false},
		{"labelA ⊆ all", labelA, all, true},
		{"all ⊄ labelA", all, labelA, false},
		{"labelA ⊆ labelA", labelA, labelA, true},
		{"nil q", nil, labelA, false},
		{"nil s", labelA, nil, false},
	}
	for _, c := range cases {
		if got := Subsumes(c.q, c.s); got != c.want {
			t.Errorf("%s: Subsumes = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestSelSummaryDifferential checks the soundness contract on random
// documents: whenever a summary exists, each node's actual selection
// equals the summary's verdict for (label, root-ness).
func TestSelSummaryDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	names := tree.NewNames()
	srcs := []string{
		`QUERY :- Label[a];`,
		`QUERY :- Label[c];`,
		`QUERY :- Text;`,
		`QUERY :- V;`,
		`QUERY :- Char[x];`,
		descendantsLabeled,
	}
	// Pre-intern the tags random trees use so Label[..] resolves.
	for _, tag := range testutil.Tags {
		if _, err := names.Intern(tag); err != nil {
			t.Fatal(err)
		}
	}
	for _, src := range srcs {
		c, err := Compile(tmnf.MustParse(src))
		if err != nil {
			t.Fatal(err)
		}
		e := NewEngine(c, names)
		sum := e.SelectionSummary()
		if sum == nil {
			t.Fatalf("%s: no summary", src)
		}
		q := e.Compiled().Prog.Queries()[0]
		for i := 0; i < 25; i++ {
			tr := testutil.RandomTreeWithNames(rng, names, 60)
			res, err := runTree(e, tr, TreeBatchOpts{})
			if err != nil {
				t.Fatal(err)
			}
			for v := 0; v < tr.Len(); v++ {
				got := res.Holds(q, tree.NodeID(v))
				want := sum.Selected(tr.Label(tree.NodeID(v)), v == 0)
				if got != want {
					t.Fatalf("%s: node %d (label %d, root=%v): selected=%v, summary says %v",
						src, v, tr.Label(tree.NodeID(v)), v == 0, got, want)
				}
			}
		}
	}
}
