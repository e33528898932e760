package main

import (
	"context"
	"fmt"
	"time"

	"arb"
	"arb/internal/workload"
)

// The serve-write workload: the same server over a versioned session of
// an LZ-compressed Swissprot-like database. One connection reads at a
// fixed rate from eight queries; the other patches at a fixed rate,
// alternately inserting and deleting one small subtree, and compacts
// every 32 patches. Every commit changes the version, so reads mostly
// miss the result cache and scan a stitched, compressed snapshot.

const (
	// serveWriteReadRate and serveWritePatchRate are the offered rates,
	// the read rate about half of what the server sustained at the
	// commit that introduced the benchmark.
	serveWriteReadRate  = 1.0
	serveWritePatchRate = 2.0
	// serveWriteLimitMS is the read_p90_ms latency limit of serve-write.
	serveWriteLimitMS = 1500.0
	// compactEvery is the number of patches between compactions.
	compactEvery = 32
	// blockSize is the LZ container's block size.
	blockSize = 64 << 10
)

// fragmentXML is the subtree the writer inserts and deletes again.
const fragmentXML = "<feature><helix>abcd</helix></feature>"

func emitFragment(h eventSink) error {
	for _, step := range []func() error{
		func() error { return h.Begin("feature") },
		func() error { return h.Begin("helix") },
		func() error { return h.Text([]byte("abcd")) },
		h.End,
		h.End,
	} {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

// writePool is serve-write's read pool: eight single-pass queries, each
// a full scan, several of them sensitive to the inserted fragment.
func writePool(b *bench) []string {
	rng := b.rng("queries")
	alphabet := []string{"entry", "feature", "helix", "reference", "sequence", "title"}
	return []string{
		"xpath://entry/feature/helix",
		"QUERY :- Label[helix];",
		"xpath://feature",
		"xpath://entry/sequence",
		"xpath://reference/title",
		workload.RandomPathRegex(rng, 3+rng.Intn(3), alphabet).TMNFSource(workload.RTreebank),
		"xpath://entry/*",
		"xpath://*",
	}
}

// writeOp is one scheduled write.
type writeOp struct {
	due    time.Duration
	op     string // "insert-child", "delete" or "compact"
	node   int64
	traced bool
}

func runServeWrite(b *bench) error {
	ctx := context.Background()
	pool := writePool(b)
	dataSeed := subSeed(b.cfg.seed, "swissprot")
	entries := b.scaled(sprotEntries128, 8)
	b.meta.ConnCap = connCap
	b.meta.Rates = map[string]float64{"read": serveWriteReadRate, "patch": serveWritePatchRate}

	var physFracSetup float64
	setup := func(i int) (*serveInst, error) {
		op := int64(-1 - i)
		d, created, err := b.createDB(i, "sprot", func() (*arb.Tree, error) { return swissprotTree(dataSeed, entries) })
		if err != nil {
			return nil, err
		}
		if _, err := arb.CompressDB(d.base, "lz", blockSize); err != nil {
			return nil, err
		}
		compressed := b.tr.mark("setup.compress", op, created)
		// The plain session reports the container's physical and
		// logical sizes; versioned sessions read through the run table.
		plain, err := arb.OpenSession(d.base)
		if err != nil {
			return nil, err
		}
		physFracSetup = physFrac(plain)
		if err := plain.Close(); err != nil {
			return nil, err
		}
		in := &serveInst{dbInst: d}
		if in.sess, err = arb.OpenVersionedSession(ctx, in.base); err != nil {
			return nil, err
		}
		if in.h, err = startHarness(b, in.sess); err != nil {
			in.close()
			return nil, err
		}
		opened := b.tr.mark("setup.open", op, compressed)
		if err := in.h.warm(pool); err != nil {
			in.close()
			return nil, err
		}
		b.tr.mark("setup.warmup", op, opened)
		return in, nil
	}
	in, err := timedSetups(b, setup, (*serveInst).close)
	if err != nil {
		return err
	}
	defer in.close()
	b.meta.Datasets["swissprot-1/128-lz"] = data{Nodes: in.sess.Len(), Bytes: fileSize(in.base + ".arb")}
	b.set("storage.phys_frac", physFracSetup)

	// The writer targets one entry: inserting the fragment as its first
	// child gives state 1, deleting the fragment (the node right after
	// the entry) returns to state 0.
	rng := b.rng("patches")
	target, err := childAt(in.tree, in.tree.Root(), rng.Intn(entries))
	if err != nil {
		return err
	}
	treeB, err := swissprotTreeWithInsert(dataSeed, entries, int64(target), emitFragment)
	if err != nil {
		return err
	}
	nodes := [2]int64{int64(in.tree.Len()), int64(treeB.Len())}
	if nodes[1] != nodes[0]+6 {
		return fmt.Errorf("inserted document has %d nodes, want %d", nodes[1], nodes[0]+6)
	}
	var want [2]map[string]int64
	for s, t := range []*arb.Tree{in.tree, treeB} {
		if want[s], err = expectedCounts(ctx, t, pool); err != nil {
			return fmt.Errorf("oracle: %w", err)
		}
	}
	in.tree, treeB = nil, nil
	if err := b.prepareTimes(in.sess, pool); err != nil {
		return err
	}

	// The schedule: reads on one connection, writes on the other. Write
	// k commits version v0+k+1; stateAfter[k] is the document state it
	// leaves.
	dur := time.Duration(b.cfg.seconds * float64(time.Second))
	sched := b.rng("schedule")
	readDues := periodicArrivals(sched, count(serveWriteReadRate, b.cfg.seconds), dur)
	writeDues := periodicArrivals(sched, count(serveWritePatchRate, b.cfg.seconds), dur)
	reqs := make([]readReq, len(readDues))
	coins := traceCoins(b, len(readDues)+len(writeDues))
	// Uniform over the pool, balanced: each run of len(pool) reads is a
	// fresh permutation of it, so every run reads the same mix.
	var order []int
	for i := range reqs {
		if len(order) == 0 {
			order = sched.Perm(len(pool))
		}
		reqs[i] = readReq{due: readDues[i], query: pool[order[0]], traced: coins != nil && coins[i]}
		order = order[1:]
	}
	writes := make([]writeOp, len(writeDues))
	stateAfter := make([]int, len(writes))
	state, patches := 0, 0
	for k := range writes {
		w := writeOp{due: writeDues[k], traced: coins != nil && coins[len(reqs)+k]}
		switch {
		case patches > 0 && patches%compactEvery == 0 && (k == 0 || writes[k-1].op != "compact"):
			w.op = "compact"
		case state == 0:
			w.op, w.node, state = "insert-child", int64(target), 1
			patches++
		default:
			w.op, w.node, state = "delete", int64(target)+1, 0
			patches++
		}
		writes[k], stateAfter[k] = w, state
	}
	v0 := in.sess.Version()
	stateOf := func(v uint64) (int, bool) {
		switch {
		case v == v0:
			return 0, true
		case v > v0 && v-v0 <= uint64(len(writes)):
			return stateAfter[v-v0-1], true
		}
		return 0, false
	}

	reads := make([]sample, len(reqs))
	wsamples := make([]sample, len(writes))
	var segPeak int
	var manifestPeak int64
	before := in.h.srv.Snapshot()
	heap := startHeapSampler()
	start := time.Now()
	done := make(chan struct{})
	go func() {
		defer close(done)
		openLoop(start, len(writes), 1, func(k int) time.Duration { return writes[k].due }, func(k int) {
			wsamples[k] = in.h.write(k, start, writes[k], v0+uint64(k)+1, nodes[stateAfter[k]])
			if st := in.h.srv.Snapshot().Store; st != nil && st.Segments > segPeak {
				segPeak = st.Segments
			}
			manifestPeak = max(manifestPeak, fileSize(in.base+".arbm"))
		})
	}()
	openLoop(start, len(reqs), 1, func(i int) time.Duration { return reqs[i].due }, func(i int) {
		reads[i] = in.h.read(i, start, reqs[i], func(rep queryReply) (int64, bool) {
			s, ok := stateOf(rep.Version)
			c, known := want[s][reqs[i].query]
			return c, ok && known
		})
		reads[i].mode = "miss"
		if reads[i].outcome == "hit" {
			reads[i].mode = "hit"
		}
	})
	<-done
	span := phaseEnd(start, dur)
	b.set("heap_peak_mb", heap.finish())
	after := in.h.srv.Snapshot()

	b.readMetrics(reads, span, serveWriteLimitMS)
	b.traceOverhead(append(reads, wsamples...))
	b.set("mode.miss_frac", modeShare(reads, "miss"))
	b.serverDeltas(before, after, reads)
	b.handlerMetrics()

	var patchLat, commit, compact []float64
	for k, s := range wsamples {
		b.attempted++
		if !s.ok {
			b.failed++
			continue
		}
		if writes[k].op == "compact" {
			compact = append(compact, s.elapsed*1e3)
			continue
		}
		patchLat = append(patchLat, ms(s.latency()))
		commit = append(commit, s.elapsed*1e3)
	}
	b.set("patch_samples", float64(len(wsamples)))
	b.set("patch.p50_ms", quantile(patchLat, 0.5))
	b.set("patch.p90_ms", quantile(patchLat, 0.9))
	b.set("vstore.commit_p50_ms", quantile(commit, 0.5))
	b.set("vstore.commit_p90_ms", quantile(commit, 0.9))
	b.set("vstore.compact_ms", mean(compact))
	b.set("vstore.compactions", float64(len(compact)))
	b.set("vstore.segments_peak", float64(segPeak))
	b.set("vstore.manifest_bytes_peak", float64(manifestPeak))

	in.h.close()
	in.h = nil
	if st, ok := in.sess.StoreStats(); ok && st.Pins != 0 {
		b.problem("the store reports %d snapshot pins after the timed phase", st.Pins)
	}
	b.endChecks(in.sess, in.dir)
	b.finishCounts()
	if b.tr != nil {
		b.selfMetrics()
	}
	return nil
}

// write sends one scheduled /patch request and checks that it committed
// the expected version with the expected node count.
func (h *harness) write(k int, start time.Time, w writeOp, wantVersion uint64, wantNodes int64) sample {
	op := int64(1_000_000 + k)
	body := map[string]any{"op": w.op}
	if w.op != "compact" {
		body["node"] = w.node
	}
	if w.op == "insert-child" {
		body["xml"] = fragmentXML
	}
	sent := time.Now()
	var rep patchReply
	err := h.post(h.client, "/patch", body, 0, &rep)
	recv := time.Now()
	s := sample{query: w.op, mode: w.op, due: w.due, sent: sent.Sub(start), done: recv.Sub(start), elapsed: rep.Elapsed, traced: w.traced}
	switch {
	case err != nil:
		h.b.note("write %d (%s) failed: %v", k, w.op, err)
	case rep.Version != wantVersion || rep.Nodes != wantNodes:
		h.b.wrongAnswer("write %d (%s) committed version %d with %d nodes, want version %d with %d nodes",
			k, w.op, rep.Version, rep.Nodes, wantVersion, wantNodes)
	default:
		s.ok = true
	}
	if w.traced {
		tr := h.b.tr
		due := start.Add(w.due)
		id := tr.record("patch", op, 0, due, time.Now(), "op", w.op, "ok", s.ok)
		tr.record("gen.wait", op, id, due, sent)
		tr.record("http", op, id, sent, recv, "elapsed_seconds", rep.Elapsed, "version", rep.Version)
		s.done = time.Since(start)
	}
	return s
}
