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

// The serve-read workload: an in-process server with the result cache on,
// over one raw document holding a Swissprot-like and a Treebank-like
// section. Reads arrive open loop (Poisson, fixed rate) on at most two
// connections: ~75% from a hot set that fits the result cache, the rest
// one-off queries that miss the plan cache.

const (
	// serveReadRate is the offered read rate, about half of what the
	// server sustained at the commit that introduced the benchmark.
	serveReadRate = 15.0
	// serveReadLimitMS is the read_p90_ms latency limit of serve-read.
	serveReadLimitMS = 400.0
	// Traffic shares: hot set, one-off label queries (answered by
	// subsumption from a cached superset), and one-off path regexes
	// (cold compile plus a pruned scan) make up the rest.
	hotShare   = 0.75
	labelShare = 0.05
)

// hotSet is the serve-read hot set. Label-only queries make //* (and
// //NP, //feature) subsumption sources for the one-off label queries.
func hotSet(rng *rand.Rand) []string {
	regex := func() string {
		return workload.RandomPathRegex(rng, 3+rng.Intn(2), workload.GrammarAlphabet).TMNFSource(workload.RTreebank)
	}
	return []string{
		"xpath://*",
		"xpath://NP",
		"QUERY :- Label[NP];",
		"xpath://S/VP/NP",
		"xpath://VP/PP",
		"xpath://PP/NP",
		"xpath://S[not(VP)]",
		regex(),
		regex(),
		"QUERY :- Label[helix];",
		"xpath://feature/helix",
		"xpath://entry/sequence",
		"xpath://reference/authors",
		"xpath://entry[not(feature/helix)]/id",
		"xpath://feature",
		"xpath://entry/db",
	}
}

// serveReadSchedule draws the timed phase's reads: arrival times, and
// per read a hot query, a one-off label query or a one-off path regex.
func serveReadSchedule(b *bench, hot []string, posTags int) []readReq {
	rng := b.rng("schedule")
	n := count(serveReadRate, b.cfg.seconds)
	dues := poissonArrivals(rng, n, time.Duration(b.cfg.seconds*float64(time.Second)))
	nHot := int(float64(n)*hotShare + 0.5)
	nLabel := int(float64(n)*labelShare + 0.5)
	kinds := make([]string, n)
	for i := range kinds {
		switch {
		case i < nHot:
			kinds[i] = "hot"
		case i < nHot+nLabel:
			kinds[i] = "label"
		default:
			kinds[i] = "regex"
		}
	}
	rng.Shuffle(n, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })

	seen := map[string]bool{}
	for _, q := range hot {
		seen[q] = true
	}
	labels := rng.Perm(posTags)
	coins := traceCoins(b, n)
	reqs := make([]readReq, n)
	for i := range reqs {
		r := readReq{due: dues[i], traced: coins != nil && coins[i]}
		switch {
		case kinds[i] == "hot":
			r.query, r.mode = hot[rng.Intn(len(hot))], "hot"
		case kinds[i] == "label" && len(labels) > 0:
			r.query, r.mode = fmt.Sprintf("QUERY :- Label[T%d];", labels[0]), "cold"
			labels = labels[1:]
		default:
			for r.query == "" || seen[r.query] {
				r.query = workload.RandomPathRegex(rng, 3+rng.Intn(4), workload.GrammarAlphabet).TMNFSource(workload.RTreebank)
			}
			r.mode = "cold"
		}
		seen[r.query] = true
		reqs[i] = r
	}
	return reqs
}

// serveInst is one set-up server over its database.
type serveInst struct {
	dbInst
	sess *arb.Session
	h    *harness
}

func (in *serveInst) close() {
	if in.h != nil {
		in.h.close()
	}
	in.sess.Close()
	os.RemoveAll(in.dir)
}

func runServeRead(b *bench) error {
	ctx := context.Background()
	hot := hotSet(b.rng("queries"))
	sprotSeed, tbSeed := subSeed(b.cfg.seed, "swissprot"), subSeed(b.cfg.seed, "treebank")
	entries := b.scaled(sprotEntries256, 8)
	sentences := b.scaled(treebankSents64, 8)
	b.meta.ConnCap = connCap
	b.meta.Rates = map[string]float64{"read": serveReadRate}

	setup := func(i int) (*serveInst, error) {
		op := int64(-1 - i)
		d, created, err := b.createDB(i, "corpus", func() (*arb.Tree, error) {
			return corpusTree(sprotSeed, entries, tbSeed, sentences)
		})
		if err != nil {
			return nil, err
		}
		in := &serveInst{dbInst: d}
		if in.sess, err = arb.OpenSession(in.base); err != nil {
			return nil, err
		}
		if in.h, err = startHarness(b, in.sess); err != nil {
			in.close()
			return nil, err
		}
		opened := b.tr.mark("setup.open", op, created)
		if err := in.h.warm(hot); err != nil {
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
	b.meta.Datasets["corpus"] = data{Nodes: in.sess.Len(), Bytes: fileSize(in.base + ".arb")}

	reqs := serveReadSchedule(b, hot, 246)
	queries := append([]string(nil), hot...)
	for _, r := range reqs {
		if r.mode == "cold" {
			queries = append(queries, r.query)
		}
	}
	want, err := expectedCounts(ctx, in.tree, queries)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	in.tree = nil
	if err := b.prepareTimes(in.sess, hot); err != nil {
		return err
	}

	reads := make([]sample, len(reqs))
	before := in.h.srv.Snapshot()
	heap := startHeapSampler()
	start := time.Now()
	openLoop(start, len(reqs), connCap, func(i int) time.Duration { return reqs[i].due }, func(i int) {
		reads[i] = in.h.read(i, start, reqs[i], func(queryReply) (int64, bool) {
			c, ok := want[reqs[i].query]
			return c, ok
		})
	})
	span := phaseEnd(start, time.Duration(b.cfg.seconds*float64(time.Second)))
	b.set("heap_peak_mb", heap.finish())
	after := in.h.srv.Snapshot()

	b.readMetrics(reads, span, serveReadLimitMS)
	b.traceOverhead(reads)
	b.set("mode.hot_frac", modeShare(reads, "hot"))
	b.serverDeltas(before, after, reads)
	b.handlerMetrics()
	b.set("storage.phys_frac", physFrac(in.sess))

	in.h.close()
	in.h = nil
	b.endChecks(in.sess, in.dir)
	b.finishCounts()
	if b.tr != nil {
		b.selfMetrics()
	}
	return nil
}
