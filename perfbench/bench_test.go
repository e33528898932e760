package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the tests compare with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// runOnce runs the benchmark in-process and returns its result line and
// the run record printed on the line before it.
func runOnce(t *testing.T, args ...string) (result, runMeta) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args = append(args, "-dir", t.TempDir())
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%v: exit %d\n%s", args, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var keys map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &keys); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	var got []string
	for k := range keys {
		got = append(got, k)
	}
	sort.Strings(got)
	if want := "attempted,correct,failed,metrics"; strings.Join(got, ",") != want {
		t.Fatalf("result keys %v, want %s", got, want)
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted < 1 {
		t.Fatalf("%v: correct=%v attempted=%d\n%s", args, res.Correct, res.Attempted, stderr.String())
	}
	var meta runMeta
	if len(lines) < 2 {
		t.Fatalf("no run record before the result line")
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &meta); err != nil {
		t.Fatalf("run record is not JSON: %v", err)
	}
	return res, meta
}

// TestSpecsMatchBenchmarkFile holds the metric tables here and in
// BENCHMARK.json in agreement, names and units, in order.
func TestSpecsMatchBenchmarkFile(t *testing.T) {
	f := readBenchmarkFile(t)
	render := func(specs []metricSpec) string {
		var parts []string
		for _, s := range specs {
			parts = append(parts, s.name+"/"+s.unit)
		}
		return strings.Join(parts, " ")
	}
	var e2e, layer []metricSpec
	for _, m := range f.EndToEnd {
		e2e = append(e2e, metricSpec{m.Name, m.Unit})
	}
	for _, m := range f.PerLayer {
		layer = append(layer, metricSpec{m.Name, m.Unit})
	}
	if got, want := render(e2e), render(endToEnd); got != want {
		t.Errorf("BENCHMARK.json end_to_end:\n%s\nwant:\n%s", got, want)
	}
	if got, want := render(layer), render(perLayer); got != want {
		t.Errorf("BENCHMARK.json per_layer:\n%s\nwant:\n%s", got, want)
	}
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, want %s", got, want)
	}
}

// TestSmoke runs every workload briefly at a tiny scale, untraced and
// traced, and checks that each prints exactly its metrics, each with the
// unit BENCHMARK.json gives it, and that the correctness gate passes.
func TestSmoke(t *testing.T) {
	f := readBenchmarkFile(t)
	for _, w := range f.Workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace"+trace, func(t *testing.T) {
				res, _ := runOnce(t, "-workload", w.Name, "-seed", "7", "-seconds", "1.5", "-trace", trace,
					"-scale", "0.02")
				want := f.EndToEnd
				if trace == "1" {
					want = f.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics printed, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s has unit %q, want %q", m.Name, got.Unit, m.Unit)
					}
				}
			})
		}
	}
}

// TestWorkloadsShowWhyChosen runs each workload at full size and checks
// the properties it was chosen for: which mode the reads at the p50 and
// p90 ranks are in, where pruning and the result cache must and must not
// fire, and that serve-write compacts a compressed multi-segment store.
// scan and serve-read run as long as a benchmark run: a shorter scan
// run has too few reads for its p90 rank to tell the modes apart.
func TestWorkloadsShowWhyChosen(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size workloads take a few minutes")
	}
	const runSeconds = "25" // BENCHMARK.json's run_seconds
	layer := func(t *testing.T, workload, seconds string) (map[string]float64, runMeta) {
		res, meta := runOnce(t, "-workload", workload, "-seed", "3", "-seconds", seconds, "-trace", "1")
		out := map[string]float64{}
		for k, m := range res.Metrics {
			out[k] = m.Value
		}
		return out, meta
	}
	check := func(t *testing.T, name string, ok bool, v any) {
		t.Helper()
		if !ok {
			t.Errorf("%s = %v", name, v)
		}
	}
	placed := func(t *testing.T, meta runMeta, p50, p90 string) {
		t.Helper()
		check(t, "mode at p50", meta.Modes["p50"] == p50, meta.Modes["p50"])
		check(t, "mode at p90", meta.Modes["p90"] == p90, meta.Modes["p90"])
	}
	t.Run("scan", func(t *testing.T) {
		m, meta := layer(t, "scan", runSeconds)
		check(t, "automata.transitions_timed", m["automata.transitions_timed"] == 0, m["automata.transitions_timed"])
		check(t, "storage.skipped_frac", m["storage.skipped_frac"] == 0, m["storage.skipped_frac"])
		placed(t, meta, "single", "multi")
	})
	t.Run("serve-read", func(t *testing.T) {
		m, meta := layer(t, "serve-read", runSeconds)
		check(t, "storage.skipped_frac", m["storage.skipped_frac"] > 0, m["storage.skipped_frac"])
		check(t, "rescache.subsumed_frac", m["rescache.subsumed_frac"] > 0, m["rescache.subsumed_frac"])
		share := m["mode.hot_frac"]
		check(t, "mode.hot_frac", share >= 0.6 && share <= 0.8, share)
		placed(t, meta, "hot", "cold")
	})
	t.Run("serve-write", func(t *testing.T) {
		// 33 writes at 2/s reach the first compaction.
		m, meta := layer(t, "serve-write", fmt.Sprint(float64(compactEvery+2)/serveWritePatchRate))
		check(t, "vstore.compactions", m["vstore.compactions"] >= 1, m["vstore.compactions"])
		check(t, "storage.phys_frac", m["storage.phys_frac"] < 1, m["storage.phys_frac"])
		check(t, "vstore.segments_peak", m["vstore.segments_peak"] > 1, m["vstore.segments_peak"])
		placed(t, meta, "miss", "miss")
	})
}
