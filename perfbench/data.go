package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"arb"
	"arb/internal/workload"
)

// Paper-scale dataset sizes at the benchmark's fractions (-scale 1):
// Swissprot-like at 1/128 and 1/256 of DefaultSwissprot(1), Treebank-like
// at 1/64 of DefaultTreebank(1).
var (
	sprotEntries128 = workload.DefaultSwissprot(1.0 / 128).Entries
	sprotEntries256 = workload.DefaultSwissprot(1.0 / 256).Entries
	treebankSents64 = workload.DefaultTreebank(1.0 / 64).Sentences
)

// eventSink is the generators' event interface, which *arb.TreeBuilder
// implements.
type eventSink interface {
	Begin(name string) error
	Text(s []byte) error
	End() error
}

// swissprotTree generates a Swissprot-like document in memory.
func swissprotTree(seed int64, entries int) (*arb.Tree, error) {
	return workload.SwissprotTree(workload.SwissprotConfig{Seed: seed, Entries: entries})
}

// corpusTree generates one document whose root holds a Swissprot-like
// section followed by a Treebank-like one.
func corpusTree(sprotSeed int64, entries int, tbSeed int64, sentences int) (*arb.Tree, error) {
	tb := arb.NewTreeBuilder()
	if err := tb.Begin("corpus"); err != nil {
		return nil, err
	}
	if err := workload.SwissprotFeed(workload.SwissprotConfig{Seed: sprotSeed, Entries: entries}, tb); err != nil {
		return nil, err
	}
	if err := workload.TreebankFeed(workload.TreebankConfig{Seed: tbSeed, Sentences: sentences}, tb); err != nil {
		return nil, err
	}
	if err := tb.End(); err != nil {
		return nil, err
	}
	return tb.Tree()
}

// inserter forwards generator events and splices a fragment in as the
// first child of the element with preorder id at, mirroring what
// Session.InsertChild does to a stored document.
type inserter struct {
	next     eventSink
	at, id   int64
	fragment func(eventSink) error
}

func (in *inserter) Begin(name string) error {
	if err := in.next.Begin(name); err != nil {
		return err
	}
	in.id++
	if in.id-1 == in.at {
		return in.fragment(in.next)
	}
	return nil
}

func (in *inserter) Text(s []byte) error {
	in.id += int64(len(s))
	return in.next.Text(s)
}

func (in *inserter) End() error { return in.next.End() }

// swissprotTreeWithInsert generates the same document as swissprotTree
// with the fragment inserted as the first child of element at.
func swissprotTreeWithInsert(seed int64, entries int, at int64, fragment func(eventSink) error) (*arb.Tree, error) {
	tb := arb.NewTreeBuilder()
	in := &inserter{next: tb, at: at, fragment: fragment}
	if err := workload.SwissprotFeed(workload.SwissprotConfig{Seed: seed, Entries: entries}, in); err != nil {
		return nil, err
	}
	return tb.Tree()
}

// childAt returns the preorder id of the k-th child of v (0-based).
func childAt(t *arb.Tree, v arb.NodeID, k int) (arb.NodeID, error) {
	c := t.First(v)
	for i := 0; i < k && c != arb.None; i++ {
		c = t.Second(c)
	}
	if c == arb.None {
		return 0, fmt.Errorf("node %d has no child %d", v, k)
	}
	return c, nil
}

// parseQuery parses a query in the server's convention: a Core XPath
// expression behind "xpath:", a TMNF program otherwise.
func parseQuery(q string) (any, error) {
	if x, ok := strings.CutPrefix(q, "xpath:"); ok {
		return arb.ParseXPath(x)
	}
	return arb.ParseProgram(q)
}

// prepare compiles a query on a session.
func prepare(sess *arb.Session, q string) (*arb.PreparedQuery, error) {
	parsed, err := parseQuery(q)
	if err != nil {
		return nil, fmt.Errorf("parse %q: %w", q, err)
	}
	switch p := parsed.(type) {
	case *arb.XPathQuery:
		return sess.PrepareXPath(p)
	default:
		return sess.Prepare(p.(*arb.Program))
	}
}

// expectedCounts is the correctness oracle: it evaluates every query on
// the in-memory strategy (a batch over an in-memory session of the same
// generated tree) and returns the selected-node count per query.
func expectedCounts(ctx context.Context, t *arb.Tree, queries []string) (map[string]int64, error) {
	sess := arb.NewSession(t)
	items := make([]any, len(queries))
	for i, q := range queries {
		parsed, err := parseQuery(q)
		if err != nil {
			return nil, fmt.Errorf("parse %q: %w", q, err)
		}
		items[i] = parsed
	}
	batch, err := sess.PrepareBatch(items...)
	if err != nil {
		return nil, err
	}
	results, _, err := batch.Exec(ctx, arb.ExecOpts{})
	if err != nil {
		return nil, err
	}
	out := make(map[string]int64, len(queries))
	for i, q := range queries {
		out[q] = results[i].Count(batch.Queries(i)[0])
	}
	return out, nil
}

// dbInst is one set-up database: its directory, its base path, and the
// generated tree it was written from, kept for the oracle.
type dbInst struct {
	dir, base string
	tree      *arb.Tree
}

// createDB runs the first set-up steps shared by every workload: it
// generates a document and writes it as database name in a fresh
// directory for set-up i, recording the two steps as spans. It returns
// when the last step ended, for the next step's span to start at.
func (b *bench) createDB(i int, name string, generate func() (*arb.Tree, error)) (dbInst, time.Time, error) {
	op := int64(-1 - i)
	d := dbInst{dir: filepath.Join(b.work, fmt.Sprintf("setup%d", i))}
	if err := os.MkdirAll(d.dir, 0o755); err != nil {
		return d, time.Time{}, err
	}
	d.base = filepath.Join(d.dir, name)
	start := time.Now()
	t, err := generate()
	if err != nil {
		return d, time.Time{}, err
	}
	generated := b.tr.mark("setup.generate", op, start)
	db, err := arb.CreateDBFromTree(d.base, t)
	if err != nil {
		return d, time.Time{}, err
	}
	if err := db.Close(); err != nil {
		return d, time.Time{}, err
	}
	d.tree = t
	return d, b.tr.mark("setup.create", op, generated), nil
}
