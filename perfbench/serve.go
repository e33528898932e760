package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"arb"
	"arb/internal/server"
)

// connCap is the client's connection limit: the host has two cores and
// the load generator uses one of them.
const connCap = 2

// resCacheBytes is the result-cache budget of both serve workloads.
const resCacheBytes = 16 << 20

// opHeader carries an operation id on traced requests, so the handler
// wrapper can time the server side of that operation.
const opHeader = "X-Perfbench-Op"

// harness is an in-process arb server on a loopback listener plus the
// HTTP client that drives it.
type harness struct {
	b      *bench
	srv    *server.Server
	hs     *http.Server
	url    string
	client *http.Client // the load generator's, capped at connCap connections
	warmer *http.Client // set-up's, uncapped so warm-up queries coalesce
	served chan error
	cancel context.CancelFunc

	handlerTimes sync.Map // op id string -> [2]time.Time around Handler().ServeHTTP
}

func startHarness(b *bench, sess *arb.Session) (*harness, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	h := &harness{
		b:      b,
		srv:    server.New(ctx, sess, server.Config{ResCacheBytes: resCacheBytes}),
		url:    "http://" + ln.Addr().String(),
		served: make(chan error, 1),
		cancel: cancel,
		client: &http.Client{
			Timeout: time.Minute,
			Transport: &http.Transport{
				MaxConnsPerHost:     connCap,
				MaxIdleConnsPerHost: connCap,
				DisableCompression:  true,
			},
		},
		warmer: &http.Client{Timeout: time.Minute, Transport: &http.Transport{DisableCompression: true}},
	}
	handler := h.srv.Handler()
	h.hs = &http.Server{
		ReadHeaderTimeout: 10 * time.Second,
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			op := r.Header.Get(opHeader)
			if op == "" {
				handler.ServeHTTP(w, r)
				return
			}
			start := time.Now()
			handler.ServeHTTP(w, r)
			h.handlerTimes.Store(op, [2]time.Time{start, time.Now()})
		}),
	}
	go func() { h.served <- h.hs.Serve(ln) }()
	return h, nil
}

// close drains the HTTP server, waits for it to stop, and closes the
// arb server. The session stays open.
func (h *harness) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := h.hs.Shutdown(ctx); err != nil {
		h.b.problem("server shutdown: %v", err)
	}
	<-h.served
	h.srv.Close()
	h.cancel()
	h.client.CloseIdleConnections()
	h.warmer.CloseIdleConnections()
}

// queryReply is the part of a /query reply the benchmark reads.
type queryReply struct {
	Results []struct {
		Count int64 `json:"count"`
	} `json:"results"`
	PlanCache   string  `json:"plan_cache"`
	ResultCache string  `json:"result_cache"`
	Version     uint64  `json:"version"`
	Elapsed     float64 `json:"elapsed_seconds"`
}

// outcome classifies a reply: answered from the result cache ("hit"),
// executed on a cached plan ("miss"), or compiled first ("cold").
func (r queryReply) outcome() string {
	switch {
	case r.ResultCache != "":
		return "hit"
	case r.PlanCache == "miss":
		return "cold"
	}
	return "miss"
}

// patchReply is the /patch reply.
type patchReply struct {
	Version uint64  `json:"version"`
	Nodes   int64   `json:"nodes"`
	Elapsed float64 `json:"elapsed_seconds"`
}

// post sends one JSON request and decodes a 200 reply into out. op > 0
// asks the handler wrapper to time the server side.
func (h *harness) post(client *http.Client, path string, body any, op int64, out any) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPost, h.url+path, bytes.NewReader(buf))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if op > 0 {
		req.Header.Set(opHeader, strconv.FormatInt(op, 10))
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(payload))
	}
	return json.Unmarshal(payload, out)
}

// query runs one /query request on client.
func (h *harness) query(client *http.Client, q string, op int64) (queryReply, error) {
	var rep queryReply
	err := h.post(client, "/query", map[string]any{"query": q}, op, &rep)
	if err == nil && len(rep.Results) == 0 {
		err = fmt.Errorf("reply to %q has no results", q)
	}
	return rep, err
}

// readReq is one scheduled read.
type readReq struct {
	due    time.Duration
	query  string
	mode   string
	traced bool
}

// read sends a scheduled read and checks its count; want returns the
// expected count for the reply (ok=false when none is known).
func (h *harness) read(i int, start time.Time, r readReq, want func(queryReply) (int64, bool)) sample {
	op := int64(i + 1)
	tag := int64(0)
	if r.traced {
		tag = op
	}
	sent := time.Now()
	rep, err := h.query(h.client, r.query, tag)
	recv := time.Now()
	s := sample{query: r.query, mode: r.mode, due: r.due, sent: sent.Sub(start), done: recv.Sub(start), traced: r.traced}
	if err != nil {
		h.b.note("read %d (%q) failed: %v", i, r.query, err)
	} else {
		s.elapsed, s.outcome = rep.Elapsed, rep.outcome()
		exp, known := want(rep)
		s.ok = known && rep.Results[0].Count == exp
		if !s.ok {
			h.b.wrongAnswer("read %d: %q at version %d selected %d nodes, the in-memory strategy %d (known=%v)",
				i, r.query, rep.Version, rep.Results[0].Count, exp, known)
		}
	}
	if r.traced {
		tr := h.b.tr
		due := start.Add(r.due)
		id := tr.record("read", op, 0, due, time.Now(), "query", r.query, "ok", s.ok, "outcome", s.outcome)
		tr.record("gen.wait", op, id, due, sent)
		httpID := tr.record("http", op, id, sent, recv, "elapsed_seconds", s.elapsed, "version", rep.Version)
		if v, ok := h.handlerTimes.LoadAndDelete(strconv.FormatInt(op, 10)); ok {
			ht := v.([2]time.Time)
			tr.record("server.handler", op, httpID, ht[0], ht[1])
		}
		s.done = time.Since(start)
	}
	return s
}

// warm sends every query once, all at once, so the server coalesces
// them into shared scans; it returns when every answer has arrived.
func (h *harness) warm(queries []string) error {
	errs := make([]error, len(queries))
	var wg sync.WaitGroup
	for i, q := range queries {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = h.query(h.warmer, q, 0)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	return nil
}

// openLoop runs n scheduled operations on workers goroutines: each takes
// the next operation, waits until it is due, and runs it. Operations are
// timed from their due time, so a stalled server also delays the ones
// queued behind it.
func openLoop(start time.Time, n, workers int, due func(i int) time.Duration, do func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				waitUntil(start.Add(due(i)))
				do(i)
			}
		}()
	}
	wg.Wait()
}

// spinWindow is how long before a due time waitUntil stops sleeping and
// polls the clock: time.Sleep overshoots by up to a millisecond, which
// would otherwise dominate the latency of a result-cache hit.
const spinWindow = 2 * time.Millisecond

// waitUntil returns at t, or at once when t has passed.
func waitUntil(t time.Time) {
	if d := time.Until(t) - spinWindow; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// poissonArrivals returns n due times of a Poisson process over [0, dur)
// conditioned on n arrivals: sorted uniform draws.
func poissonArrivals(rng *rand.Rand, n int, dur time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(rng.Float64() * float64(dur))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// periodicArrivals returns n due times at a fixed rate over [0, dur),
// starting at a random phase within the first period.
func periodicArrivals(rng *rand.Rand, n int, dur time.Duration) []time.Duration {
	period := dur / time.Duration(n)
	phase := time.Duration(rng.Int63n(int64(period)))
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = phase + time.Duration(i)*period
	}
	return out
}

// count returns round(rate × seconds), at least 1.
func count(rate, seconds float64) int {
	return max(1, int(math.Round(rate*seconds)))
}

// serverDeltas records the per-layer metrics derived from the server's
// counters over the timed phase, and the reply-side execution times.
func (b *bench) serverDeltas(before, after server.Stats, reads []sample) {
	n := float64(len(reads))
	p0, p1 := before.Profile, after.Profile
	scanned := float64(p1.Phase1 + p1.Phase2 - p0.Phase1 - p0.Phase2)
	skipped := float64(p1.Skipped - p0.Skipped)
	var execSecs float64
	byOutcome := map[string][]float64{}
	for _, s := range reads {
		if s.outcome == "" {
			continue
		}
		byOutcome[s.outcome] = append(byOutcome[s.outcome], s.elapsed*1e3)
		if s.outcome != "hit" {
			execSecs += s.elapsed
		}
	}
	b.set("storage.bytes_per_read", scanned/n)
	b.set("storage.state_bytes_per_read", float64(p1.StateBytes-p0.StateBytes)/n)
	b.set("storage.skipped_frac", frac(skipped, scanned+skipped))
	b.set("storage.scan_mb_s", frac(scanned/1e6, execSecs))
	b.set("server.exec_hit_ms", quantile(byOutcome["hit"], 0.5))
	b.set("server.exec_miss_ms", quantile(byOutcome["miss"], 0.5))
	b.set("server.exec_cold_ms", quantile(byOutcome["cold"], 0.5))

	hits := float64(after.PlanCache.Hits - before.PlanCache.Hits)
	misses := float64(after.PlanCache.Misses - before.PlanCache.Misses)
	b.set("server.plan_hit_frac", frac(hits, hits+misses))
	b.set("server.batch_degree", frac(float64(p1.Queries-p0.Queries), float64(p1.ScanRounds-p0.ScanRounds)))
	c0, c1 := before.Coalescer, after.Coalescer
	b.set("server.solo_frac", frac(float64(c1.Solo-c0.Solo), float64(c1.Groups-c0.Groups)))

	if r0, r1 := before.ResultCache, after.ResultCache; r0 != nil && r1 != nil {
		lookups := float64((r1.Hits + r1.Subsumed + r1.Misses) - (r0.Hits + r0.Subsumed + r0.Misses))
		b.set("rescache.hit_frac", frac(float64(r1.Hits-r0.Hits), lookups))
		b.set("rescache.subsumed_frac", frac(float64(r1.Subsumed-r0.Subsumed), lookups))
		b.set("rescache.miss_frac", frac(float64(r1.Misses-r0.Misses), lookups))
		b.set("rescache.evictions", float64(r1.Evictions-r0.Evictions))
		b.set("rescache.resident_mb", float64(r1.Bytes)/1e6)
	}
}

// handlerMetrics records the server.handler and http.transport medians
// from the traced reads' spans.
func (b *bench) handlerMetrics() {
	if b.tr == nil {
		return
	}
	b.tr.mu.Lock()
	defer b.tr.mu.Unlock()
	httpSpan := map[int64]span{}
	for _, s := range b.tr.spans {
		if s.Name == "http" {
			httpSpan[s.ID] = s
		}
	}
	var handler, transport []float64
	for _, s := range b.tr.spans {
		if s.Name != "server.handler" {
			continue
		}
		hd := s.End - s.Start
		handler = append(handler, ms(hd))
		if p, ok := httpSpan[s.Parent]; ok {
			transport = append(transport, ms(p.End-p.Start-hd))
		}
	}
	b.set("server.handler_ms", quantile(handler, 0.5))
	b.set("http.transport_ms", quantile(transport, 0.5))
}

// prepareTimes records xpath.prepare_ms: the mean time to compile each
// pool query on the session through the public Prepare calls (the
// server compiles its own plans the same way on a plan-cache miss).
func (b *bench) prepareTimes(sess *arb.Session, queries []string) error {
	var times []float64
	for _, q := range queries {
		start := time.Now()
		if _, err := prepare(sess, q); err != nil {
			return err
		}
		times = append(times, ms(time.Since(start)))
	}
	b.set("xpath.prepare_ms", mean(times))
	return nil
}
