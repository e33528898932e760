package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"time"

	"arb"
	"arb/internal/workload"
)

// The scan workload: one library caller runs PreparedQuery.Exec in a
// closed loop over a raw Swissprot-like database, cycling eight fixed
// queries. No server, no result cache; Swissprot never prunes, so all
// time goes to the two scans, automaton stepping and the state file.

// poolQuery is one query of a workload's pool, in the server's syntax.
type poolQuery struct {
	text string
	mode string // the mode tag its samples carry
}

// scanPool returns the cycle: six single-pass queries (including Leaf,
// //* and a Fig-6-style path regex) and two multi-pass not(..) queries,
// a quarter of the reads, placed so p50 and p90 each fall in one mode.
// Every label a query or a not(..) pass tests for first occurs in every
// entry, so no extent is label-disjoint from a query and nothing prunes.
func scanPool(rng *rand.Rand) []poolQuery {
	alphabet := []string{"entry", "reference", "feature", "sequence", "authors", "title"}
	regex := workload.RandomPathRegex(rng, 3+rng.Intn(3), alphabet).TMNFSource(workload.RTreebank)
	return []poolQuery{
		{"QUERY :- Leaf;", "single"},
		{"xpath://*", "single"},
		{regex, "single"},
		{"xpath://entry[not(feature/helix)]/id", "multi"},
		{"xpath://entry/sequence", "single"},
		{"xpath://feature/helix", "single"},
		{"xpath://reference/authors", "single"},
		{"xpath://entry[not(feature/strand)]/accession", "multi"},
	}
}

// scanInst is one set-up scan database with its prepared pool.
type scanInst struct {
	dbInst
	sess      *arb.Session
	pqs       []*arb.PreparedQuery
	prepareMS []float64
	warmTx    int
}

func (in *scanInst) close() {
	in.sess.Close()
	os.RemoveAll(in.dir)
}

func runScan(b *bench) error {
	ctx := context.Background()
	pool := scanPool(b.rng("queries"))
	dataSeed := subSeed(b.cfg.seed, "swissprot")
	entries := b.scaled(sprotEntries128, 8)

	setup := func(i int) (*scanInst, error) {
		op := int64(-1 - i)
		d, created, err := b.createDB(i, "sprot", func() (*arb.Tree, error) { return swissprotTree(dataSeed, entries) })
		if err != nil {
			return nil, err
		}
		in := &scanInst{dbInst: d}
		if in.sess, err = arb.OpenSession(in.base); err != nil {
			return nil, err
		}
		opened := b.tr.mark("setup.open", op, created)
		for _, q := range pool {
			start := time.Now()
			pq, err := prepare(in.sess, q.text)
			if err != nil {
				in.close()
				return nil, err
			}
			in.prepareMS = append(in.prepareMS, ms(time.Since(start)))
			in.pqs = append(in.pqs, pq)
		}
		prepared := b.tr.mark("setup.prepare", op, opened)
		// One shared-scan batch runs every pool query once and warms
		// each handle's automata for the scalar executions timed below.
		batch, err := in.sess.BatchOf(in.pqs...)
		if err != nil {
			in.close()
			return nil, err
		}
		_, prof, err := batch.Exec(ctx, arb.ExecOpts{Stats: true})
		if err != nil {
			in.close()
			return nil, err
		}
		in.warmTx = prof.Engine.BUTransitions + prof.Engine.TDTransitions
		b.tr.mark("setup.warmup", op, prepared)
		return in, nil
	}
	in, err := timedSetups(b, setup, (*scanInst).close)
	if err != nil {
		return err
	}
	defer in.close()
	b.meta.Datasets["swissprot-1/128"] = data{Nodes: in.sess.Len(), Bytes: fileSize(in.base + ".arb")}
	b.set("xpath.prepare_ms", mean(in.prepareMS))
	b.set("automata.transitions_setup", float64(in.warmTx))

	texts := make([]string, len(pool))
	for i, q := range pool {
		texts[i] = q.text
	}
	want, err := expectedCounts(ctx, in.tree, texts)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	in.tree = nil
	coins := traceCoins(b, int(b.cfg.seconds*1000)+64)

	// Timed phase: a closed loop, each Exec issued when the previous
	// answer has been checked.
	var reads []sample
	var eng arb.Stats
	var disk arb.DiskStats
	var execTime time.Duration
	dur := time.Duration(b.cfg.seconds * float64(time.Second))
	heap := startHeapSampler()
	start := time.Now()
	for i := 0; time.Since(start) < dur; i++ {
		q := pool[i%len(pool)]
		pq := in.pqs[i%len(pool)]
		traced := i < len(coins) && coins[i]
		opStart := time.Now()
		res, prof, err := pq.Exec(ctx, arb.ExecOpts{Stats: true})
		opEnd := time.Now()
		s := sample{query: q.text, mode: q.mode, due: opStart.Sub(start), sent: opStart.Sub(start), done: opEnd.Sub(start), traced: traced}
		if err == nil {
			got := res.Count(pq.Queries()[0])
			s.ok = got == want[q.text]
			if !s.ok {
				b.wrongAnswer("scan read %d: %q selected %d nodes, the in-memory strategy %d", i, q.text, got, want[q.text])
			}
			eng.Add(prof.Engine)
			disk.Merge(prof.Disk)
			execTime += opEnd.Sub(opStart)
		}
		if traced {
			tr := b.tr
			id := tr.record("read", int64(i), 0, opStart, time.Now(), "query", q.text, "ok", s.ok)
			attrs := []any{"error", fmt.Sprint(err)}
			if prof != nil {
				attrs = []any{"passes", prof.Passes, "bytes", prof.Disk.Phase1.Bytes + prof.Disk.Phase2.Bytes,
					"phase1_ns", prof.Engine.Phase1Time, "phase2_ns", prof.Engine.Phase2Time,
					"transitions", prof.Engine.BUTransitions + prof.Engine.TDTransitions}
			}
			tr.record("exec", int64(i), id, opStart, opEnd, attrs...)
			s.done = time.Since(start)
		}
		reads = append(reads, s)
	}
	span := time.Since(start)
	b.set("heap_peak_mb", heap.finish())

	b.readMetrics(reads, span, 0)
	b.traceOverhead(reads)
	b.set("mode.multipass_frac", modeShare(reads, "multi"))
	n := float64(len(reads))
	scanned := float64(disk.Phase1.Bytes + disk.Phase2.Bytes)
	skipped := float64(disk.Phase1.SkippedBytes + disk.Phase2.SkippedBytes)
	b.set("automata.transitions_timed", float64(eng.BUTransitions+eng.TDTransitions))
	b.set("core.phase1_ms", ms(eng.Phase1Time)/n)
	b.set("core.phase2_ms", ms(eng.Phase2Time)/n)
	b.set("core.ns_per_node", frac(float64(eng.Phase1Time+eng.Phase2Time), float64(eng.Nodes)))
	b.set("storage.scan_mb_s", frac(scanned/1e6, execTime.Seconds()))
	b.set("storage.bytes_per_read", scanned/n)
	b.set("storage.state_bytes_per_read", float64(disk.StateBytes)/n)
	b.set("storage.skipped_frac", frac(skipped, scanned+skipped))
	b.set("storage.phys_frac", physFrac(in.sess))

	b.endChecks(in.sess, in.dir)
	b.finishCounts()
	if b.tr != nil {
		b.selfMetrics()
	}
	return nil
}

// physFrac returns a session's physical ÷ logical record bytes (1 for a
// raw database).
func physFrac(sess *arb.Session) float64 {
	if info, ok := sess.Compression(); ok && info.LogicalBytes > 0 {
		return float64(info.PhysBytes) / float64(info.LogicalBytes)
	}
	return 1
}

// endChecks runs the end-of-run gate on a session and its database
// directory: no snapshot pin may be outstanding and no temporary file
// left behind. It also records bytes_per_node over the live document.
func (b *bench) endChecks(sess *arb.Session, dir string) {
	if pins := sess.Pins(); pins != 0 {
		b.problem("%d snapshot pins still held after the timed phase", pins)
	}
	b.set("vstore.pins_end", float64(sess.Pins()))
	b.checkLeftovers(dir)
	stored, err := storedBytes(dir)
	if err != nil {
		b.problem("sizing the database: %v", err)
	}
	b.set("bytes_per_node", frac(float64(stored), float64(sess.Len())))
}

func fileSize(path string) int64 {
	info, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return info.Size()
}

// traceCoins draws which operations a traced run traces: about half,
// chosen at random before timing so traced and untraced operations see
// the same conditions. A traced operation's latency runs until its spans
// are recorded, so its difference from an untraced one is the overhead.
func traceCoins(b *bench, n int) []bool {
	if b.tr == nil {
		return nil
	}
	rng := b.rng("trace")
	coins := make([]bool, n)
	for i := range coins {
		coins[i] = rng.Intn(2) == 0
	}
	return coins
}
