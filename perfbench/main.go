// Command perfbench is arb's benchmark. It builds one of three workloads
// from the paper's dataset generators (internal/workload), drives arb
// through its public surface — library sessions and prepared queries, or
// the HTTP query server on a loopback listener — for a fixed time, checks
// every answer against the in-memory strategy, and prints its metrics as
// one JSON object on the last line of standard output:
//
//	go run . -workload scan -seed 1 -seconds 25 -trace 0
//
// With -trace 0 the object carries the end-to-end metrics; with -trace 1
// the per-layer metrics, from a run that also records spans around every
// call the benchmark makes (see trace.go). README.md lists the workloads,
// every metric, and which end-to-end metric each layer metric moves.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	dir      string  // directory the run's databases and traces live under
	scale    float64 // dataset size multiplier (1 = the benchmark's sizes)
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*bench) error{
	"scan":        runScan,
	"serve-read":  runServeRead,
	"serve-write": runServeWrite,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one benchmark run and returns the process exit code: 0
// when every answer was correct and nothing leaked, 1 when the run failed
// or found a wrong answer, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		return 2
	}
	drive, ok := workloads[cfg.workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want %s)\n", cfg.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	b, err := newBench(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(b.work)
	if err := drive(b); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	res, err := b.result()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if cfg.trace {
		path, err := b.tr.write(filepath.Join(cfg.dir, "traces"), cfg.workload, cfg.seed)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: writing trace: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "perfbench: trace written to %s\n", path)
	}
	for _, p := range append(b.notes, b.problems...) {
		fmt.Fprintf(stderr, "perfbench: %s: %s\n", cfg.workload, p)
	}
	meta, _ := json.Marshal(b.meta)
	line, _ := json.Marshal(res)
	fmt.Fprintf(stdout, "%s\n%s\n", meta, line)
	if !res.Correct {
		return 1
	}
	return 0
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "seed for datasets, query pools, arrivals and the patch stream")
	fs.Float64Var(&cfg.seconds, "seconds", 25, "length of the timed phase in seconds")
	fs.IntVar(&trace, "trace", 0, "1 records spans and reports per-layer metrics; 0 reports end-to-end metrics")
	fs.StringVar(&cfg.dir, "dir", ".bench_build", "directory for the run's databases and traces")
	fs.Float64Var(&cfg.scale, "scale", 1, "dataset size multiplier (tests use a tiny scale)")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	switch {
	case fs.NArg() > 0:
		err := fmt.Errorf("unexpected arguments %q", fs.Args())
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return cfg, err
	case trace != 0 && trace != 1:
		err := fmt.Errorf("-trace must be 0 or 1, not %d", trace)
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return cfg, err
	case cfg.seconds <= 0 || cfg.scale <= 0:
		err := fmt.Errorf("-seconds and -scale must be positive")
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return cfg, err
	}
	cfg.trace = trace == 1
	return cfg, nil
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// runMeta is printed on the line before the result: what produced it.
type runMeta struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Seconds    float64            `json:"seconds"`
	Trace      bool               `json:"trace"`
	Scale      float64            `json:"scale"`
	Commit     string             `json:"commit"`
	GoVersion  string             `json:"go_version"`
	NumCPU     int                `json:"nproc"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Flush      string             `json:"flush_policy"`
	ConnCap    int                `json:"connection_cap"`
	Datasets   map[string]data    `json:"datasets"`
	Rates      map[string]float64 `json:"rates_per_s,omitempty"`
	Modes      map[string]string  `json:"percentile_modes"` // mode of the reads at the p50 and p90 ranks
}

// data describes one generated dataset.
type data struct {
	Nodes int64 `json:"nodes"`
	Bytes int64 `json:"bytes"`
}

func newMeta(cfg config) runMeta {
	return runMeta{
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Trace:      cfg.trace,
		Scale:      cfg.scale,
		Commit:     commit(),
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Flush:      "default: every commit fsyncs its segment and directory",
		Datasets:   map[string]data{},
	}
}

// commit names the source revision, as run.sh passes it in from git;
// "unknown" outside a git checkout.
func commit() string {
	if rev := os.Getenv("PERFBENCH_COMMIT"); rev != "" {
		return rev
	}
	return "unknown"
}
