package arb_test

import (
	"bytes"
	"context"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"arb"
	"arb/internal/core"
	"arb/internal/testutil"
)

const libraryXML = `<lib><book><title>A</title><author>X</author><author>Y</author></book><book><title>B</title><author>Z</author></book></lib>`

// TestEndToEnd drives the full public path: XML -> database -> TMNF query
// in two scans -> marked XML output.
func TestEndToEnd(t *testing.T) {
	base := filepath.Join(t.TempDir(), "lib")
	db, stats, err := arb.CreateDB(base, strings.NewReader(libraryXML))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if stats.ElemNodes != 8 || stats.CharNodes != 5 {
		t.Fatalf("stats: %d elements, %d chars", stats.ElemNodes, stats.CharNodes)
	}

	prog, err := arb.ParseProgram(`
		QUERY :- V.Label[author].NextSibling.NextSibling*.Label[author].
		         invNextSibling.invNextSibling*.Label[title];
	`)
	if err != nil {
		t.Fatal(err)
	}
	pq, err := arb.NewDBSession(db).Prepare(prog)
	if err != nil {
		t.Fatal(err)
	}
	res, prof, err := pq.Exec(context.Background(), arb.ExecOpts{Stats: true})
	if err != nil {
		t.Fatal(err)
	}
	q := prog.Queries()[0]
	if res.Count(q) != 1 {
		t.Fatalf("selected %d titles, want 1", res.Count(q))
	}
	// A handful of bottom-up states fit the one-byte state width.
	if prof.Disk.StateBytes != db.N {
		t.Fatalf("state file: %d bytes for %d nodes", prof.Disk.StateBytes, db.N)
	}

	var buf bytes.Buffer
	if err := arb.EmitXML(db, &buf, func(v int64) bool { return res.Holds(q, arb.NodeID(v)) }); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `<title arb:selected="true">A</title>`) {
		t.Fatalf("title A not marked:\n%s", out)
	}
	if strings.Contains(out, `<title arb:selected="true">B</title>`) {
		t.Fatalf("title B wrongly marked:\n%s", out)
	}
}

func TestXPathFacade(t *testing.T) {
	tr, err := arb.ParseXML(strings.NewReader(libraryXML))
	if err != nil {
		t.Fatal(err)
	}
	q, err := arb.ParseXPath(`//book[not(author/following-sibling::author)]/title`)
	if err != nil {
		t.Fatal(err)
	}
	pq, err := arb.NewSession(tr).PrepareXPath(q)
	if err != nil {
		t.Fatal(err)
	}
	count, err := pq.Count(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Fatalf("selected %d titles, want 1 (single-author book)", count)
	}
}

// TestEngineReuseAcrossDocuments checks footnote 15's design point: one
// engine's lazily-built automata serve many documents, and transition
// counts stop growing once the automata have converged.
func TestEngineReuseAcrossDocuments(t *testing.T) {
	prog, err := arb.ParseProgram(`QUERY :- V.Label[a].FirstChild.NextSibling*.Label[b];`)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(71))
	// All documents share one name table so Label[..] resolution is
	// stable across runs.
	names := testutil.RandomTreeWithNames(rng, nil, 200).Names()
	c, err := core.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(c, names)
	var prev int
	converged := false
	for i := 0; i < 25; i++ {
		tr := testutil.RandomTreeWithNames(rng, names, 200)
		if _, err := core.RunBatchTree(context.Background(), tr, core.Solo(eng), core.TreeBatchOpts{}); err != nil {
			t.Fatal(err)
		}
		cur := eng.Stats().BUTransitions
		if i > 0 && cur == prev {
			converged = true
		}
		prev = cur
	}
	if !converged {
		t.Fatalf("transition table kept growing: %d transitions after 25 documents", prev)
	}
}

// TestDiskOptsFacade exercises the disk-run extensions through the
// public API: in-phase marked output and the aux sidecar chain.
func TestDiskOptsFacade(t *testing.T) {
	base := filepath.Join(t.TempDir(), "lib")
	db, _, err := arb.CreateDB(base, strings.NewReader(libraryXML))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	prog, err := arb.ParseProgram(`QUERY :- Label[title];`)
	if err != nil {
		t.Fatal(err)
	}
	sess := arb.NewDBSession(db)
	pq, err := sess.Prepare(prog)
	if err != nil {
		t.Fatal(err)
	}
	var marked bytes.Buffer
	if _, _, err := pq.Exec(context.Background(), arb.ExecOpts{MarkTo: &marked}); err != nil {
		t.Fatal(err)
	}
	if strings.Count(marked.String(), `arb:selected="true"`) != 2 {
		t.Fatalf("marked output: %s", marked.String())
	}

	// Negated XPath entirely on disk.
	q, err := arb.ParseXPath(`//book[not(author/following-sibling::author)]/title`)
	if err != nil {
		t.Fatal(err)
	}
	xpq, err := sess.PrepareXPath(q)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := xpq.Count(context.Background()); err != nil || n != 1 {
		t.Fatalf("negated XPath on disk selected %d titles (err %v), want 1", n, err)
	}
}
