package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"
)

// metricSpec names one reported metric and its unit. BENCHMARK.json at
// the repository root lists the same names and units; the smoke test
// holds the two in agreement.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics a user of arb sees, reported with -trace 0.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"read_p50_ms", "ms"},
	{"read_p90_ms", "ms"},
	{"read_qps", "1/s"},
	{"success_frac", "frac"},
	{"bytes_per_node", "B"},
	{"heap_peak_mb", "MB"},
}

// perLayer are the single-layer metrics, reported with -trace 1. Every
// workload prints all of them; a layer a workload does not exercise
// reads 0 there (README.md says which workload each one is meant for).
var perLayer = []metricSpec{
	{"read_samples", "count"},
	{"patch_samples", "count"},
	{"patch.p50_ms", "ms"},
	{"patch.p90_ms", "ms"},
	{"read_over_limit_frac", "frac"},
	{"mode.multipass_frac", "frac"},
	{"mode.hot_frac", "frac"},
	{"mode.miss_frac", "frac"},
	{"xpath.prepare_ms", "ms"},
	{"automata.transitions_setup", "count"},
	{"automata.transitions_timed", "count"},
	{"core.phase1_ms", "ms"},
	{"core.phase2_ms", "ms"},
	{"core.ns_per_node", "ns"},
	{"storage.scan_mb_s", "MB/s"},
	{"storage.bytes_per_read", "B"},
	{"storage.state_bytes_per_read", "B"},
	{"storage.skipped_frac", "frac"},
	{"storage.phys_frac", "frac"},
	{"vstore.commit_p50_ms", "ms"},
	{"vstore.commit_p90_ms", "ms"},
	{"vstore.compact_ms", "ms"},
	{"vstore.compactions", "count"},
	{"vstore.segments_peak", "count"},
	{"vstore.manifest_bytes_peak", "B"},
	{"vstore.pins_end", "count"},
	{"rescache.hit_frac", "frac"},
	{"rescache.subsumed_frac", "frac"},
	{"rescache.miss_frac", "frac"},
	{"rescache.evictions", "count"},
	{"rescache.resident_mb", "MB"},
	{"server.plan_hit_frac", "frac"},
	{"server.batch_degree", "count"},
	{"server.solo_frac", "frac"},
	{"server.handler_ms", "ms"},
	{"server.exec_hit_ms", "ms"},
	{"server.exec_miss_ms", "ms"},
	{"server.exec_cold_ms", "ms"},
	{"http.transport_ms", "ms"},
	{"gen.lag_p90_ms", "ms"},
	{"trace.overhead_frac", "frac"},
	{"self.setup_ms", "ms"},
	{"self.read_ms", "ms"},
	{"self.gen_wait_ms", "ms"},
	{"self.http_ms", "ms"},
	{"self.server_handler_ms", "ms"},
	{"self.exec_ms", "ms"},
	{"self.patch_ms", "ms"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is the state of one run, shared by every workload.
type bench struct {
	cfg  config
	work string // per-run directory under cfg.dir, removed at exit
	meta runMeta
	tr   *tracer // nil unless -trace 1

	values    map[string]float64 // metrics measured so far, by name
	attempted int64              // timed operations issued
	failed    int64              // failed, refused, timed-out or wrong operations

	mu       sync.Mutex // client goroutines report concurrently
	wrong    int64      // answers that disagreed with the oracle; guarded by mu
	problems []string   // correctness-gate findings, printed to stderr; guarded by mu
	notes    []string   // failed operations, printed to stderr; guarded by mu
}

func newBench(cfg config) (*bench, error) {
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(cfg.dir, "run-"+cfg.workload+"-*")
	if err != nil {
		return nil, err
	}
	b := &bench{cfg: cfg, work: work, meta: newMeta(cfg), values: map[string]float64{}}
	if cfg.trace {
		b.tr = newTracer()
	}
	return b, nil
}

// set records a metric value.
func (b *bench) set(name string, v float64) { b.values[name] = v }

// problem records a correctness-gate failure: the run will exit nonzero.
func (b *bench) problem(format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
}

// wrongAnswer records an answer that disagreed with the oracle.
func (b *bench) wrongAnswer(format string, args ...any) {
	b.mu.Lock()
	b.wrong++
	b.mu.Unlock()
	b.problem(format, args...)
}

// note records a failed operation; it counts in failed, not as wrong.
func (b *bench) note(format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

// result assembles the metrics the run's mode reports. Per-layer metrics
// a workload does not exercise read 0; a missing end-to-end metric is a
// bug in the workload's run function.
func (b *bench) result() (result, error) {
	res := result{
		Correct:   b.wrong == 0 && len(b.problems) == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   map[string]metric{},
	}
	if res.Attempted < 1 {
		return res, fmt.Errorf("no operation was attempted")
	}
	specs := endToEnd
	if b.cfg.trace {
		specs = perLayer
	}
	for _, s := range specs {
		v, ok := b.values[s.name]
		if !ok && !b.cfg.trace {
			return res, fmt.Errorf("end-to-end metric %s was not measured", s.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("metric %s is %v", s.name, v)
		}
		res.Metrics[s.name] = metric{Value: v, Unit: s.unit}
	}
	return res, nil
}

// subSeed derives an independent seed for one random stream of the run
// from the run's seed, so every input follows from -seed alone.
func subSeed(seed int64, stream string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, stream)
	return int64(h.Sum64() >> 1)
}

func (b *bench) rng(stream string) *rand.Rand {
	return rand.New(rand.NewSource(subSeed(b.cfg.seed, stream)))
}

// scaled returns n scaled by -scale, at least min.
func (b *bench) scaled(n, min int) int {
	v := int(math.Round(float64(n) * b.cfg.scale))
	if v < min {
		return min
	}
	return v
}

// setups is how many times a run sets up; setup_s is their median.
const setups = 3

// timedSetups runs setup setups times, reports the median wall time as
// setup_s, and keeps the last instance; earlier ones are torn down.
func timedSetups[T any](b *bench, setup func(i int) (T, error), teardown func(T)) (T, error) {
	var durs []float64
	var last T
	for i := 0; i < setups; i++ {
		start := time.Now()
		inst, err := setup(i)
		if err != nil {
			var zero T
			return zero, fmt.Errorf("set-up %d: %w", i, err)
		}
		durs = append(durs, time.Since(start).Seconds())
		if i < setups-1 {
			teardown(inst)
		}
		last = inst
	}
	b.set("setup_s", quantile(durs, 0.5))
	return last, nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// frac returns a/b, or 0 when b is 0.
func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// heapSampler tracks the peak live heap — the heap left after the most
// recent garbage collection — while a timed phase runs. It polls the
// figure the runtime updates after each of the program's own
// collections and forces a collection only at the two ends of the
// phase, so the timed operations pay for no collection the program
// would not run itself.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64 // written by the sampling goroutine until done closes
}

const liveHeapMetric = "/gc/heap/live:bytes"

func startHeapSampler() *heapSampler {
	runtime.GC() // the phase starts from a collected heap
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			h.sample()
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	s := []metrics.Sample{{Name: liveHeapMetric}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 {
		h.peak = max(h.peak, s[0].Value.Uint64())
	}
}

// finish stops sampling, takes a last sample after one forced
// collection at the end of the phase, and returns the peak in MB. Call
// it before the phase's data is dropped.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	runtime.GC()
	h.sample()
	return float64(h.peak) / 1e6
}

// storedBytes sums the database files the bytes_per_node metric counts:
// the record file, the index, the version manifest and live segments.
func storedBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		switch filepath.Ext(path) {
		case ".arb", ".idx", ".arbm", ".seg":
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// checkLeftovers reports temporary files executions and commits left
// behind: scan state files (.sta, .stb) and uncommitted temp files.
func (b *bench) checkLeftovers(dir string) {
	var left []string
	_ = filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		if ext := filepath.Ext(path); ext == ".sta" || ext == ".stb" || strings.Contains(filepath.Base(path), ".tmp") {
			left = append(left, filepath.Base(path))
		}
		return nil
	})
	if len(left) > 0 {
		b.problem("temporary files left in the database directory: %s", strings.Join(left, ", "))
	}
}

// sample is one timed operation as the client saw it.
type sample struct {
	query   string        // the query text of a read
	mode    string        // the workload's mode tag (e.g. "hot", "multi")
	due     time.Duration // when it was due, from the phase start
	sent    time.Duration // when the client sent it
	done    time.Duration // when its answer arrived; for a traced operation, when its spans were recorded
	ok      bool          // answered, and the answer was correct
	outcome string        // server reads: "hit", "miss" or "cold"
	elapsed float64       // server-side elapsed_seconds from the reply
	traced  bool
}

func (s sample) latency() time.Duration { return s.done - s.due }

// latencies returns the latencies of samples (in ms) passing keep.
func latencies(ss []sample, keep func(sample) bool) []float64 {
	var out []float64
	for _, s := range ss {
		if keep == nil || keep(s) {
			out = append(out, ms(s.latency()))
		}
	}
	return out
}

// readMetrics records the read-side end-to-end metrics and the mode and
// lag figures common to every workload. span is the timed phase's
// length (at least the scheduled length).
func (b *bench) readMetrics(reads []sample, span time.Duration, limitMS float64) {
	var okCount float64
	var over float64
	var lags []float64
	for _, s := range reads {
		b.attempted++
		if s.ok {
			okCount++
		} else {
			b.failed++
		}
		if !s.ok || (limitMS > 0 && ms(s.latency()) > limitMS) {
			over++
		}
		lags = append(lags, ms(s.sent-s.due))
	}
	all := latencies(reads, nil)
	b.set("read_p50_ms", quantile(all, 0.5))
	b.set("read_p90_ms", quantile(all, 0.9))
	b.set("read_qps", okCount/span.Seconds())
	b.set("read_samples", float64(len(reads)))
	b.set("read_over_limit_frac", frac(over, float64(len(reads))))
	b.set("gen.lag_p90_ms", quantile(lags, 0.9))
	b.meta.Modes = map[string]string{"p50": percentileMode(reads, 0.5), "p90": percentileMode(reads, 0.9)}
}

// traceOverhead records trace.overhead_frac, comparing traced with
// untraced operations of the same query (or patch kind). Each correct
// operation's latency is divided by the median latency of its query's
// operations; the overhead is the median of the traced ratios over the
// median of the untraced ones, minus 1. Queries without both traced and
// untraced operations (serve-read's one-off tail) are left out.
func (b *bench) traceOverhead(ops []sample) {
	byQuery := map[string][]sample{}
	for _, s := range ops {
		if s.ok {
			byQuery[s.query] = append(byQuery[s.query], s)
		}
	}
	var traced, plain []float64
	for _, ss := range byQuery {
		med := quantile(latencies(ss, nil), 0.5)
		t := latencies(ss, func(s sample) bool { return s.traced })
		p := latencies(ss, func(s sample) bool { return !s.traced })
		if len(t) == 0 || len(p) == 0 || med == 0 {
			continue
		}
		for _, v := range t {
			traced = append(traced, v/med)
		}
		for _, v := range p {
			plain = append(plain, v/med)
		}
	}
	if len(traced) > 0 {
		b.set("trace.overhead_frac", quantile(traced, 0.5)/quantile(plain, 0.5)-1)
	}
}

// percentileMode returns the mode of the reads at the q-quantile's
// rank: the mode of both order statistics quantile interpolates
// between, or "mixed" when they differ.
func percentileMode(reads []sample, q float64) string {
	if len(reads) == 0 {
		return ""
	}
	s := append([]sample(nil), reads...)
	sort.SliceStable(s, func(i, j int) bool { return s[i].latency() < s[j].latency() })
	pos := q * float64(len(s)-1)
	lo, hi := s[int(math.Floor(pos))], s[int(math.Ceil(pos))]
	if lo.mode != hi.mode {
		return "mixed"
	}
	return lo.mode
}

// finishCounts records success_frac once every operation is counted.
func (b *bench) finishCounts() {
	b.set("success_frac", 1-frac(float64(b.failed), float64(b.attempted)))
}

// modeShare returns the share of samples whose mode is m.
func modeShare(ss []sample, m string) float64 {
	var n float64
	for _, s := range ss {
		if s.mode == m {
			n++
		}
	}
	return frac(n, float64(len(ss)))
}

// phaseEnd waits until the scheduled phase length has passed and
// returns the measured length of the phase: the schedule, stretched by
// any backlog its last answers arrived behind.
func phaseEnd(start time.Time, scheduled time.Duration) time.Duration {
	time.Sleep(time.Until(start.Add(scheduled)))
	return time.Since(start)
}
