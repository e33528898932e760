package arb_test

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"arb"
)

// gateWriter blocks the first Write until released, flagging when the
// write began — a probe that pins an Exec mid-execution.
type gateWriter struct {
	started chan struct{}
	release chan struct{}
	once    sync.Once
}

func (w *gateWriter) Write(p []byte) (int, error) {
	w.once.Do(func() {
		close(w.started)
		<-w.release
	})
	return len(p), nil
}

// TestExecReentrantOverlap is the regression test for the serialised
// PreparedQuery: two Execs of ONE handle must be able to run at the same
// time. The first execution is pinned mid-run (its MarkTo writer blocks
// on a gate); the second must complete while the first is still inside
// Exec. Under the old per-handle mutex the second Exec queued behind the
// first and this test timed out.
func TestExecReentrantOverlap(t *testing.T) {
	tr := buildCatalog(t, 300)
	dir := t.TempDir()
	db, err := arb.CreateDBFromTree(filepath.Join(dir, "catalog"), tr)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	for name, sess := range map[string]*arb.Session{
		"memory": arb.NewSession(tr),
		"disk":   arb.NewDBSession(db),
	} {
		t.Run(name, func(t *testing.T) {
			prog, err := arb.ParseProgram(`QUERY :- Label[flag];`)
			if err != nil {
				t.Fatal(err)
			}
			pq, err := sess.Prepare(prog)
			if err != nil {
				t.Fatal(err)
			}

			gate := &gateWriter{started: make(chan struct{}), release: make(chan struct{})}
			pinned := make(chan error, 1)
			go func() {
				_, _, err := pq.Exec(context.Background(), arb.ExecOpts{MarkTo: gate})
				pinned <- err
			}()
			select {
			case <-gate.started:
			case <-time.After(10 * time.Second):
				t.Fatal("pinned execution never reached its writer")
			}

			// The handle is mid-Exec; a second Exec of the SAME handle
			// must still run to completion.
			overlapped := make(chan error, 1)
			go func() {
				n, err := pq.Count(context.Background())
				if err == nil && n != 200 {
					err = fmt.Errorf("overlapped Exec selected %d nodes, want 200", n)
				}
				overlapped <- err
			}()
			select {
			case err := <-overlapped:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("second Exec of the handle did not overlap the pinned one (handle serialises executions)")
			}

			close(gate.release)
			if err := <-pinned; err != nil {
				t.Fatalf("pinned execution failed: %v", err)
			}
		})
	}
	assertOnlyDatabaseFiles(t, dir)
}

// TestKeepStatesOverlap is the regression test for the per-run state-file
// names: two KeepStates disk Execs of ONE handle must overlap, each
// keeping its own uniquely named state file. The first execution is
// pinned mid-run (its MarkTo writer blocks on a gate); the second must
// complete — KeepStates and all — while the first is still inside Exec.
// Under the old fixed base.sta name the handle serialised its keepers
// and this test timed out.
func TestKeepStatesOverlap(t *testing.T) {
	tr := buildCatalog(t, 300)
	dir := t.TempDir()
	db, err := arb.CreateDBFromTree(filepath.Join(dir, "catalog"), tr)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	sess := arb.NewDBSession(db)

	prog, err := arb.ParseProgram(`QUERY :- Label[flag];`)
	if err != nil {
		t.Fatal(err)
	}
	pq, err := sess.Prepare(prog)
	if err != nil {
		t.Fatal(err)
	}

	gate := &gateWriter{started: make(chan struct{}), release: make(chan struct{})}
	type outcome struct {
		res *arb.Result
		err error
	}
	pinned := make(chan outcome, 1)
	go func() {
		res, _, err := pq.Exec(context.Background(), arb.ExecOpts{KeepStates: true, MarkTo: gate})
		pinned <- outcome{res, err}
	}()
	select {
	case <-gate.started:
	case <-time.After(10 * time.Second):
		t.Fatal("pinned execution never reached its writer")
	}

	// The handle is mid-Exec with a kept state file in flight; a second
	// KeepStates Exec of the SAME handle must still run to completion.
	overlapped := make(chan outcome, 1)
	go func() {
		res, _, err := pq.Exec(context.Background(), arb.ExecOpts{KeepStates: true})
		overlapped <- outcome{res, err}
	}()
	var second outcome
	select {
	case second = <-overlapped:
		if second.err != nil {
			t.Fatal(second.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("second KeepStates Exec did not overlap the pinned one (handle serialises keepers)")
	}

	close(gate.release)
	first := <-pinned
	if first.err != nil {
		t.Fatalf("pinned execution failed: %v", first.err)
	}

	// Each run kept its own state file: distinct names, both present,
	// both full-size.
	if first.res.StateFile == "" || second.res.StateFile == "" {
		t.Fatalf("kept runs reported state files %q and %q", first.res.StateFile, second.res.StateFile)
	}
	if first.res.StateFile == second.res.StateFile {
		t.Fatalf("both runs kept the same state file %s", first.res.StateFile)
	}
	for _, p := range []string{first.res.StateFile, second.res.StateFile} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("kept state file missing: %v", err)
		}
		if st.Size() == 0 {
			t.Fatalf("kept state file %s is empty", p)
		}
		os.Remove(p)
	}
	assertOnlyDatabaseFiles(t, dir)
}

// TestConcurrentSessionStress hammers one session pair (memory and disk
// over the same document) with goroutines running a mixed workload —
// single-query TMNF, multi-pass XPath, PrepareBatch batches and BatchOf
// batches over the shared hot handles, sequential and parallel — and
// requires every result to be bit-identical to the sequential baseline.
// Run under -race this is the concurrency gate for the reentrant
// execution layer.
func TestConcurrentSessionStress(t *testing.T) {
	tr := buildCatalog(t, 900)
	dir := t.TempDir()
	db, err := arb.CreateDBFromTree(filepath.Join(dir, "catalog"), tr)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	prog, err := arb.ParseProgram(`QUERY :- Label[flag];`)
	if err != nil {
		t.Fatal(err)
	}
	xq, err := arb.ParseXPath(`//item[not(flag)]/name`)
	if err != nil {
		t.Fatal(err)
	}

	type backend struct {
		name string
		sess *arb.Session
		pq   *arb.PreparedQuery // hot single-query handle, shared by all goroutines
		xpq  *arb.PreparedQuery // hot multi-pass handle
		pb   *arb.PreparedBatch // hot batch over the two handles' automata
	}
	var backends []*backend
	for name, sess := range map[string]*arb.Session{
		"memory": arb.NewSession(tr),
		"disk":   arb.NewDBSession(db),
	} {
		b := &backend{name: name, sess: sess}
		if b.pq, err = sess.Prepare(prog); err != nil {
			t.Fatal(err)
		}
		if b.xpq, err = sess.PrepareXPath(xq); err != nil {
			t.Fatal(err)
		}
		if b.pb, err = sess.BatchOf(b.pq, b.xpq); err != nil {
			t.Fatal(err)
		}
		backends = append(backends, b)
	}

	// Sequential baselines, computed before any concurrency.
	wantTMNF := selectedOf(t, backends[0].pq, arb.ExecOpts{})
	wantXPath := selectedOf(t, backends[0].xpq, arb.ExecOpts{})
	if len(wantTMNF) != 600 || len(wantXPath) != 300 {
		t.Fatalf("baseline selected %d/%d nodes, want 600/300", len(wantTMNF), len(wantXPath))
	}
	same := func(got, want []arb.NodeID) error {
		if len(got) != len(want) {
			return fmt.Errorf("selected %d nodes, want %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				return fmt.Errorf("selected node %d is %d, want %d", i, got[i], want[i])
			}
		}
		return nil
	}

	const goroutines = 16
	const iters = 6
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < iters; i++ {
				b := backends[rng.Intn(len(backends))]
				workers := 1
				if rng.Intn(2) == 1 {
					workers = 3
				}
				opts := arb.ExecOpts{Workers: workers, NoPrune: rng.Intn(2) == 1}
				var err error
				switch rng.Intn(3) {
				case 0: // single-query TMNF through the shared hot handle
					var res *arb.Result
					if res, _, err = b.pq.Exec(context.Background(), opts); err == nil {
						err = same(res.Selected(b.pq.Queries()[0]), wantTMNF)
					}
				case 1: // multi-pass XPath through the shared hot handle
					var res *arb.Result
					if res, _, err = b.xpq.Exec(context.Background(), opts); err == nil {
						err = same(res.Selected(b.xpq.Queries()[0]), wantXPath)
					}
				case 2: // shared-scan batch over the same engines
					var res []*arb.Result
					if res, _, err = b.pb.Exec(context.Background(), opts); err == nil {
						if err = same(res[0].Selected(b.pb.Queries(0)[0]), wantTMNF); err == nil {
							err = same(res[1].Selected(b.pb.Queries(1)[0]), wantXPath)
						}
					}
				}
				if err != nil {
					errc <- fmt.Errorf("%s goroutine %d iter %d: %w", b.name, g, i, err)
					return
				}
			}
			errc <- nil
		}(g)
	}
	for g := 0; g < goroutines; g++ {
		if err := <-errc; err != nil {
			t.Error(err)
		}
	}
	assertOnlyDatabaseFiles(t, dir)
}
