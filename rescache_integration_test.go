package arb_test

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"arb"
)

// cachedIDs collects the selected ids of a result's first query.
func cachedIDs(res *arb.Result, q arb.Pred) []int64 {
	var ids []int64
	res.Walk(q, func(v arb.NodeID) bool {
		ids = append(ids, int64(v))
		return true
	})
	return ids
}

func sameIDs(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// assertZeroScan holds a cache-served profile to the tier's promise:
// answering from the cache means no automata pass ran and no database
// byte was read.
func assertZeroScan(t *testing.T, prof *arb.Profile, label string) {
	t.Helper()
	if prof.Passes != 0 {
		t.Fatalf("%s: cache-served execution ran %d passes, want 0", label, prof.Passes)
	}
	if b := prof.Disk.Phase1.Bytes + prof.Disk.Phase2.Bytes; b != 0 {
		t.Fatalf("%s: cache-served execution read %d database bytes, want 0", label, b)
	}
}

// TestResCacheDifferentialStrategies holds cached and subsumed answers
// to the uncached truth across every execution strategy: in-memory and
// on-disk, sequential and parallel, plus the shared-scan batch. For each
// strategy the second cache-opted execution must be an exact hit with
// zero scans and a result bit-identical to a plain Exec.
func TestResCacheDifferentialStrategies(t *testing.T) {
	ctx := context.Background()
	tree := buildCatalog(t, 300)
	base := filepath.Join(t.TempDir(), "db")
	db, err := arb.CreateDBFromTree(base, tree)
	if err != nil {
		t.Fatal(err)
	}
	db.Close()

	sources := []string{"//item", "//flag", "//item/name", "//catalog/item"}
	queries := make([]*arb.XPathQuery, len(sources))
	for i, src := range sources {
		if queries[i], err = arb.ParseXPath(src); err != nil {
			t.Fatal(err)
		}
	}

	// Uncached truth, computed once on a cache-less disk session.
	baseSess, err := arb.OpenSession(base)
	if err != nil {
		t.Fatal(err)
	}
	defer baseSess.Close()
	truth := make([][]int64, len(sources))
	for i, q := range queries {
		pq, err := baseSess.PrepareXPath(q)
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := pq.Exec(ctx, arb.ExecOpts{})
		if err != nil {
			t.Fatal(err)
		}
		truth[i] = cachedIDs(res, pq.Queries()[0])
	}

	strategies := []struct {
		name    string
		mem     bool
		workers int
	}{
		{"mem-seq", true, 1},
		{"mem-par", true, -1},
		{"disk-seq", false, 1},
		{"disk-par", false, -1},
	}
	for _, st := range strategies {
		t.Run(st.name, func(t *testing.T) {
			var sess *arb.Session
			if st.mem {
				sess = arb.NewSession(tree)
			} else {
				var err error
				if sess, err = arb.OpenSession(base); err != nil {
					t.Fatal(err)
				}
				defer sess.Close()
			}
			sess.SetResultCache(1 << 22)
			opts := arb.ExecOpts{Workers: st.workers, ResultCache: true, Stats: true}
			for i, q := range queries {
				pq, err := sess.PrepareXPath(q)
				if err != nil {
					t.Fatal(err)
				}
				// First cache-opted execution: a miss (or, if an earlier
				// query's entry subsumes this one, a subsumption answer) —
				// either way the result must equal the uncached truth and a
				// repeat must be an exact zero-scan hit.
				res1, _, err := pq.Exec(ctx, opts)
				if err != nil {
					t.Fatal(err)
				}
				if got := cachedIDs(res1, pq.Queries()[0]); !sameIDs(got, truth[i]) {
					t.Fatalf("%s: first cached exec differs from truth (%d vs %d ids)", sources[i], len(got), len(truth[i]))
				}
				res2, prof2, err := pq.Exec(ctx, opts)
				if err != nil {
					t.Fatal(err)
				}
				if prof2.ResultCache != "hit" {
					t.Fatalf("%s: repeat kind = %q, want hit", sources[i], prof2.ResultCache)
				}
				assertZeroScan(t, prof2, sources[i])
				if got := cachedIDs(res2, pq.Queries()[0]); !sameIDs(got, truth[i]) {
					t.Fatalf("%s: cached result differs from truth", sources[i])
				}
			}
		})
	}

	t.Run("batch", func(t *testing.T) {
		sess, err := arb.OpenSession(base)
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		sess.SetResultCache(1 << 22)
		items := make([]any, len(queries))
		for i, q := range queries {
			items[i] = q
		}
		pb, err := sess.PrepareBatch(items...)
		if err != nil {
			t.Fatal(err)
		}
		// The batch publishes every member on completion...
		res, _, err := pb.Exec(ctx, arb.ExecOpts{ResultCache: true})
		if err != nil {
			t.Fatal(err)
		}
		for i := range res {
			if got := cachedIDs(res[i], pb.Queries(i)[0]); !sameIDs(got, truth[i]) {
				t.Fatalf("%s: batch result differs from truth", sources[i])
			}
		}
		// ...so single-query repeats of each member are zero-scan exact hits.
		for i, q := range queries {
			pq, err := sess.PrepareXPath(q)
			if err != nil {
				t.Fatal(err)
			}
			res, prof, err := pq.Exec(ctx, arb.ExecOpts{ResultCache: true, Stats: true})
			if err != nil {
				t.Fatal(err)
			}
			if prof.ResultCache != "hit" {
				t.Fatalf("%s: post-batch kind = %q, want hit", sources[i], prof.ResultCache)
			}
			assertZeroScan(t, prof, sources[i])
			if got := cachedIDs(res, pq.Queries()[0]); !sameIDs(got, truth[i]) {
				t.Fatalf("%s: post-batch cached result differs from truth", sources[i])
			}
		}
	})
}

// TestResCacheSubsumedAnswers proves the semantic-subsumption path end
// to end: a broad label query's published entry answers a narrower label
// query without any scan, bit-identically to the narrower query's own
// execution, and the derived entry makes the repeat an exact hit.
func TestResCacheSubsumedAnswers(t *testing.T) {
	ctx := context.Background()
	base := filepath.Join(t.TempDir(), "db")
	db, err := arb.CreateDBFromTree(base, buildCatalog(t, 300))
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
	sess, err := arb.OpenSession(base)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	sess.SetResultCache(1 << 22)

	broad, err := arb.ParseProgram(`QUERY :- Label[flag]; QUERY :- Label[name];`)
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := arb.ParseProgram(`QUERY :- Label[flag];`)
	if err != nil {
		t.Fatal(err)
	}
	pqBroad, err := sess.Prepare(broad)
	if err != nil {
		t.Fatal(err)
	}
	pqNarrow, err := sess.Prepare(narrow)
	if err != nil {
		t.Fatal(err)
	}

	// Uncached truth for the narrow query.
	resTruth, _, err := pqNarrow.Exec(ctx, arb.ExecOpts{})
	if err != nil {
		t.Fatal(err)
	}
	want := cachedIDs(resTruth, pqNarrow.Queries()[0])
	if len(want) == 0 {
		t.Fatal("degenerate document: narrow query selects nothing")
	}

	// Publish the broad entry, then answer the narrow query from it.
	if _, _, err := pqBroad.Exec(ctx, arb.ExecOpts{ResultCache: true}); err != nil {
		t.Fatal(err)
	}
	res, prof, err := pqNarrow.Exec(ctx, arb.ExecOpts{ResultCache: true, Stats: true})
	if err != nil {
		t.Fatal(err)
	}
	if prof.ResultCache != "subsumed" {
		t.Fatalf("narrow query kind = %q, want subsumed", prof.ResultCache)
	}
	assertZeroScan(t, prof, "subsumed answer")
	if got := cachedIDs(res, pqNarrow.Queries()[0]); !sameIDs(got, want) {
		t.Fatalf("subsumed answer differs from truth (%d vs %d ids)", len(got), len(want))
	}

	// The derived entry turns the repeat into an exact hit, and TryCached
	// sees it without executing anything.
	if _, prof, err := pqNarrow.Exec(ctx, arb.ExecOpts{ResultCache: true, Stats: true}); err != nil || prof.ResultCache != "hit" {
		t.Fatalf("repeat: kind = %q, err = %v, want an exact hit", prof.ResultCache, err)
	}
	if res, prof, ok := pqNarrow.TryCached(); !ok || prof.ResultCache != "hit" {
		t.Fatalf("TryCached = (_, %+v, %v), want a hit", prof, ok)
	} else if got := cachedIDs(res, pqNarrow.Queries()[0]); !sameIDs(got, want) {
		t.Fatal("TryCached result differs from truth")
	}
	stats, ok := sess.ResultCacheStats()
	if !ok || stats.Subsumed != 1 {
		t.Fatalf("stats = %+v (ok=%v), want exactly one subsumed answer", stats, ok)
	}
}

// TestResCacheVersionChurn patches and compacts a versioned store while
// cache-opted executions run, sequentially and concurrently under -race:
// every cached answer must match the uncached truth of the version it
// reports, a committed patch must never be masked by a stale entry, and
// no snapshot pin may leak.
func TestResCacheVersionChurn(t *testing.T) {
	ctx := context.Background()
	r := rand.New(rand.NewSource(7))
	base := filepath.Join(t.TempDir(), "db")
	doc, err := arb.ParseXML(strings.NewReader("<a>" + randElemXML(r, nil, 60) + randElemXML(r, nil, 60) + "</a>"))
	if err != nil {
		t.Fatal(err)
	}
	db, err := arb.CreateDBFromTree(base, doc)
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
	sess, err := arb.OpenVersionedSession(nil, base)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	sess.SetResultCache(1 << 22)

	sources := []string{"//b", "//c", "//b//d"}
	prepared := make([]*arb.PreparedQuery, len(sources))
	for i, src := range sources {
		q, err := arb.ParseXPath(src)
		if err != nil {
			t.Fatal(err)
		}
		if prepared[i], err = sess.PrepareXPath(q); err != nil {
			t.Fatal(err)
		}
	}

	mutate := func(round int) {
		t.Helper()
		if round%3 == 2 {
			if _, err := sess.Compact(ctx); err != nil {
				t.Fatal(err)
			}
			return
		}
		frag, err := arb.ParseXML(strings.NewReader(randElemXML(r, nil, 30)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Patch(ctx, arb.PatchOp{Op: "insert-child", Node: 0, Tree: frag}); err != nil {
			t.Fatal(err)
		}
	}

	// Sequential churn: at every version, warm + repeat + cross-check.
	for round := 0; round < 6; round++ {
		for i, pq := range prepared {
			resU, _, err := pq.Exec(ctx, arb.ExecOpts{})
			if err != nil {
				t.Fatal(err)
			}
			want := cachedIDs(resU, pq.Queries()[0])
			if _, _, err := pq.Exec(ctx, arb.ExecOpts{ResultCache: true}); err != nil {
				t.Fatal(err)
			}
			res, prof, err := pq.Exec(ctx, arb.ExecOpts{ResultCache: true, Stats: true})
			if err != nil {
				t.Fatal(err)
			}
			if prof.ResultCache != "hit" {
				t.Fatalf("round %d %s: repeat kind = %q, want hit", round, sources[i], prof.ResultCache)
			}
			if prof.Version != sess.Version() {
				t.Fatalf("round %d %s: cached answer reports version %d, session is at %d — stale entry served",
					round, sources[i], prof.Version, sess.Version())
			}
			if got := cachedIDs(res, pq.Queries()[0]); !sameIDs(got, want) {
				t.Fatalf("round %d %s: cached answer differs from version-%d truth", round, sources[i], sess.Version())
			}
		}
		mutate(round)
	}

	// Concurrent churn under -race: readers loop cache-opted executions
	// while the writer commits patches. Every answer must agree with the
	// version it reports (count-stable within one execution is guaranteed
	// by MVCC; here we just require clean completion and no data races),
	// and afterwards no snapshot pin may remain.
	var wg sync.WaitGroup
	errc := make(chan error, 16)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			pq := prepared[g%len(prepared)]
			for i := 0; i < 40; i++ {
				if _, _, err := pq.Exec(ctx, arb.ExecOpts{ResultCache: true}); err != nil {
					errc <- fmt.Errorf("reader %d: %w", g, err)
					return
				}
			}
		}(g)
	}
	for i := 0; i < 8; i++ {
		mutate(i)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	// Final agreement at the settled version, then the leak check.
	for i, pq := range prepared {
		resU, _, err := pq.Exec(ctx, arb.ExecOpts{})
		if err != nil {
			t.Fatal(err)
		}
		resC, prof, err := pq.Exec(ctx, arb.ExecOpts{ResultCache: true, Stats: true})
		if err != nil {
			t.Fatal(err)
		}
		if prof.Version != sess.Version() {
			t.Fatalf("%s: settled cached answer reports version %d, session is at %d", sources[i], prof.Version, sess.Version())
		}
		if !sameIDs(cachedIDs(resC, pq.Queries()[0]), cachedIDs(resU, pq.Queries()[0])) {
			t.Fatalf("%s: settled cached answer differs from uncached truth", sources[i])
		}
	}
	if ss, ok := sess.StoreStats(); !ok || ss.Snapshots != 0 {
		t.Fatalf("store stats = %+v (ok=%v), want zero outstanding snapshot pins", ss, ok)
	}
}
