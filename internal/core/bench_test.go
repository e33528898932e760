package core

import (
	"path/filepath"
	"testing"

	"arb/internal/storage"
	"arb/internal/tmnf"
	"arb/internal/workload"
)

// Ablation benchmarks for the engine's design choices: warm per-node
// cost (two hash lookups), cold warm-up (LTUR + Contract per new
// transition), and the in-memory vs two-scan-disk drivers.

func benchProgram(tb testing.TB) *tmnf.Program {
	tb.Helper()
	rx := workload.PathRegex{W1: []string{"A", "C"}, W2: []string{"G"}, W3: []string{"T"}}
	prog, err := rx.Program(workload.RFlat)
	if err != nil {
		tb.Fatal(err)
	}
	return prog
}

// BenchmarkRunWarm measures the steady state of the in-memory driver:
// transition tables converged, per-node work is cache lookups only.
func BenchmarkRunWarm(b *testing.B) {
	t := workload.FlatTree(workload.Sequence(4, 1<<16-1))
	prog := benchProgram(b)
	c, err := Compile(prog)
	if err != nil {
		b.Fatal(err)
	}
	e := NewEngine(c, t.Names())
	if _, err := runTree(e, t, TreeBatchOpts{}); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(t.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runTree(e, t, TreeBatchOpts{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunCold includes engine construction and lazy warm-up — the
// m of O(m + n).
func BenchmarkRunCold(b *testing.B) {
	t := workload.FlatTree(workload.Sequence(4, 1<<16-1))
	prog := benchProgram(b)
	c, err := Compile(prog)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(t.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := NewEngine(c, t.Names())
		if _, err := runTree(e, t, TreeBatchOpts{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunDisk measures the two-linear-scan secondary-storage driver
// (including writing and re-reading the temporary state file).
func BenchmarkRunDisk(b *testing.B) {
	base := filepath.Join(b.TempDir(), "db")
	db, err := workload.CreateFlatDB(base, workload.Sequence(4, 1<<16-1))
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	prog := benchProgram(b)
	c, err := Compile(prog)
	if err != nil {
		b.Fatal(err)
	}
	e := NewEngine(c, db.Names)
	b.SetBytes(db.N * storage.NodeSize * 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := runDisk(e, db, 1, DiskBatchOpts{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTransitionCold isolates one lazy transition computation
// (LTUR + Contract + interning) by resetting the engine each round.
func BenchmarkTransitionCold(b *testing.B) {
	t := workload.FlatTree(workload.Sequence(4, 255))
	prog := benchProgram(b)
	c, err := Compile(prog)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := NewEngine(c, t.Names())
		if _, err := runTree(e, t, TreeBatchOpts{}); err != nil {
			b.Fatal(err)
		}
	}
}
