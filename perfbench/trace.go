package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Spans are recorded from the benchmark's own code, around each call it
// makes into arb: set-up steps ("setup.generate", "setup.create", ...),
// and per timed operation a "read" or "patch" root whose children are
// "gen.wait" (due until sent), "http" (sent until answered) with the
// server-side "server.handler" inside it, or "exec" for library calls.
// Spans of one operation share its op id. They are kept in memory and
// written out as JSON lines when the run ends.

// span is one recorded interval.
type span struct {
	ID     int64          `json:"id"`
	Parent int64          `json:"parent,omitempty"`
	Op     int64          `json:"op"`
	Name   string         `json:"name"`
	Start  time.Duration  `json:"start_ns"` // from the tracer's creation
	End    time.Duration  `json:"end_ns"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

// tracer collects spans; a nil *tracer records nothing, so untraced
// operations pass nil and pay one comparison per call.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span // guarded by mu
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// record stores a finished span and returns its id (0 when t is nil).
// attrs alternates keys and values.
func (t *tracer) record(name string, op, parent int64, start, end time.Time, attrs ...any) int64 {
	if t == nil {
		return 0
	}
	s := span{Parent: parent, Op: op, Name: name, Start: start.Sub(t.t0), End: end.Sub(t.t0)}
	if len(attrs) > 0 {
		s.Attrs = map[string]any{}
		for i := 0; i+1 < len(attrs); i += 2 {
			s.Attrs[fmt.Sprint(attrs[i])] = attrs[i+1]
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = int64(len(t.spans) + 1)
	t.spans = append(t.spans, s)
	return s.ID
}

// mark records a set-up step that began at since and ends now, and
// returns now for the next step to begin at.
func (t *tracer) mark(name string, op int64, since time.Time) time.Time {
	now := time.Now()
	t.record(name, op, 0, since, now)
	return now
}

// selfTime is the summed self time of the spans of one name.
type selfTime struct {
	total time.Duration
	count int
}

// selfTimes returns, per span name, the summed self time — the span's
// duration minus the part of it its children cover — and the number of
// spans of that name.
func (t *tracer) selfTimes() map[string]selfTime {
	out := map[string]selfTime{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range t.spans {
		self := s.End - s.Start - covered(s, children[s.ID])
		e := out[s.Name]
		e.total += self
		e.count++
		out[s.Name] = e
	}
	return out
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total time.Duration
	curS, curE := time.Duration(-1), time.Duration(-1)
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	if curE > curS {
		total += curE - curS
	}
	return total
}

// selfMetrics records the mean self time per span of each layer's spans.
// All set-up steps fold into self.setup_ms, per set-up.
func (b *bench) selfMetrics() {
	var setup time.Duration
	for name, e := range b.tr.selfTimes() {
		if strings.HasPrefix(name, "setup.") {
			setup += e.total
			continue
		}
		metric := "self." + strings.ReplaceAll(name, ".", "_") + "_ms"
		b.set(metric, ms(e.total)/float64(e.count))
	}
	b.set("self.setup_ms", ms(setup)/setups)
}

// write saves the spans as JSON lines under dir and returns the path.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}
