package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"arb/internal/naive"
	"arb/internal/storage"
	"arb/internal/testutil"
	"arb/internal/tmnf"
	"arb/internal/workload"
)

// kernelProg is the program the kernel tests evaluate: upward and
// downward context (child, sibling and leaf tests) over two named labels.
const kernelProg = `QUERY :- Label[a], LastSibling; OTHER :- Label[b]; QUERY2 :- OTHER.NextSibling; QUERY3 :- Leaf;`

func kernelProgram(tb testing.TB) *Compiled {
	tb.Helper()
	prog := tmnf.MustParse(kernelProg)
	if err := prog.SetQueries("QUERY", "QUERY2", "QUERY3"); err != nil {
		tb.Fatal(err)
	}
	c, err := Compile(prog)
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// records encodes a raw .arb record stream.
func records(rs ...storage.Record) []byte {
	b := make([]byte, len(rs)*storage.NodeSize)
	for i, r := range rs {
		binary.BigEndian.PutUint16(b[i*storage.NodeSize:], r.Encode())
	}
	return b
}

// writeArb writes raw records as base.arb with a name table that knows
// the labels a and b (256 and 257).
func writeArb(tb testing.TB, base string, arb []byte) {
	tb.Helper()
	if err := os.WriteFile(base+".arb", arb, 0o644); err != nil {
		tb.Fatal(err)
	}
	if err := os.WriteFile(base+".lab", []byte("a b\n"), 0o644); err != nil {
		tb.Fatal(err)
	}
}

// assertNoRunFiles fails if a state file or the aux output survives in
// dir.
func assertNoRunFiles(t *testing.T, dir, auxOut string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".sta") || filepath.Join(dir, e.Name()) == auxOut {
			t.Errorf("failed run left %s behind", e.Name())
		}
	}
}

// kernelMustFail runs the kernel sequentially and chunked (with and
// without aux sidecars) over db and requires an error every time, no
// panic, and no state or aux file left behind.
func kernelMustFail(t *testing.T, db *storage.DB, c *Compiled, label string) {
	t.Helper()
	dir := filepath.Dir(db.Base)
	auxIn := filepath.Join(dir, "in.aux")
	if err := os.WriteFile(auxIn, make([]byte, db.N*storage.MaskStride(1)), 0o644); err != nil {
		t.Fatal(err)
	}
	auxOut := filepath.Join(dir, "out.aux")
	for _, aux := range []bool{false, true} {
		members := Solo(NewEngine(c, db.Names))
		var opts DiskBatchOpts
		if aux {
			members[0].AuxInSlot, members[0].AuxOutSlot, members[0].AuxOutQuery = 0, 0, 1
			opts = DiskBatchOpts{AuxIn: auxIn, AuxInStride: 1, AuxOut: auxOut, AuxOutStride: 1}
		}
		if _, _, err := RunDiskBatch(context.Background(), db, members, opts); err == nil {
			t.Errorf("%s (aux %v): RunDiskBatch accepted a malformed database", label, aux)
		}
		assertNoRunFiles(t, dir, auxOut)
		if _, _, err := RunDiskBatchParallel(context.Background(), db, 2, members, opts); err == nil {
			t.Errorf("%s (aux %v): RunDiskBatchParallel accepted a malformed database", label, aux)
		}
		assertNoRunFiles(t, dir, auxOut)
	}
}

// TestKernelMalformedArb feeds the evaluation kernel .arb files that
// break the record structure: it must reject each one with an error —
// sequentially and chunked, with and without aux sidecars — without
// panicking or leaving temporary files behind.
func TestKernelMalformedArb(t *testing.T) {
	lowerParallelKnobs(t)
	c := kernelProgram(t)
	cases := map[string][]byte{
		// The root announces a first child the file does not have.
		"truncated": records(storage.Record{Label: 256, HasFirst: true}),
		// The root's first child announces a missing second subtree.
		"missing second subtree": records(
			storage.Record{Label: 256, HasFirst: true},
			storage.Record{Label: 257, HasSecond: true}),
		// Two complete trees side by side.
		"two roots": records(
			storage.Record{Label: 256, HasFirst: true},
			storage.Record{Label: 257},
			storage.Record{Label: 256}),
	}
	for name, arb := range cases {
		base := filepath.Join(t.TempDir(), "db")
		writeArb(t, base, arb)
		db, err := storage.Open(base)
		if err != nil {
			t.Fatal(err)
		}
		kernelMustFail(t, db, c, name)
		db.Close()
	}

	// Chunked scans over a stale index: the sidecar describes a valid
	// tree, the .arb underneath has one record flag flipped (which always
	// breaks the structure: a well-formed stream has exactly one more node
	// than child flags). The workers' structure checks report the bad
	// extents, the rebuild scan rejects the file.
	rng := rand.New(rand.NewSource(5))
	tr := workload.InfixTree(workload.Sequence(9, 1<<11-1))
	for trial := 0; trial < 6; trial++ {
		dir := t.TempDir()
		base := filepath.Join(dir, "db")
		db, err := storage.CreateFromTree(base, tr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.Index(context.Background(), 0); err != nil {
			t.Fatal(err)
		}
		db.Close()
		arb, err := os.ReadFile(base + ".arb")
		if err != nil {
			t.Fatal(err)
		}
		v := 1 + rng.Intn(len(arb)/storage.NodeSize-1)
		arb[v*storage.NodeSize] ^= []byte{storage.FlagFirst >> 8, storage.FlagSecond >> 8}[rng.Intn(2)]
		if err := os.WriteFile(base+".arb", arb, 0o644); err != nil {
			t.Fatal(err)
		}
		db, err = storage.Open(base)
		if err != nil {
			t.Fatal(err)
		}
		kernelMustFail(t, db, c, fmt.Sprintf("flag flip at node %d", v))
		db.Close()
	}
}

// TestKernelRejectsBadAuxSlots checks that aux wiring the sidecars cannot
// hold — a slot outside the stride, a zero stride — is an error, not an
// out-of-range panic in the block loops.
func TestKernelRejectsBadAuxSlots(t *testing.T) {
	c := kernelProgram(t)
	dir := t.TempDir()
	base := filepath.Join(dir, "db")
	writeArb(t, base, records(storage.Record{Label: 256, HasFirst: true}, storage.Record{Label: 257}))
	db, err := storage.Open(base)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	auxIn := filepath.Join(dir, "in.aux")
	if err := os.WriteFile(auxIn, make([]byte, db.N*storage.MaskStride(1)), 0o644); err != nil {
		t.Fatal(err)
	}
	auxOut := filepath.Join(dir, "out.aux")
	for name, tc := range map[string]struct {
		in, out int
		opts    DiskBatchOpts
	}{
		"in slot":     {1, -1, DiskBatchOpts{AuxIn: auxIn, AuxInStride: 1}},
		"out slot":    {-1, 1, DiskBatchOpts{AuxOut: auxOut, AuxOutStride: 1}},
		"zero stride": {-1, -1, DiskBatchOpts{AuxOut: auxOut}},
	} {
		members := Solo(NewEngine(c, db.Names))
		members[0].AuxInSlot, members[0].AuxOutSlot = tc.in, tc.out
		if _, _, err := RunDiskBatch(context.Background(), db, members, tc.opts); err == nil {
			t.Errorf("%s: run accepted aux wiring its sidecar cannot hold", name)
		}
		assertNoRunFiles(t, dir, auxOut)
	}
}

// eofReaderAt serves a byte slice the way io.ReaderAt permits but
// *os.File never does: a read that ends exactly at the end of the input
// returns io.EOF alongside the full count.
type eofReaderAt []byte

func (r eofReaderAt) ReadAt(p []byte, off int64) (int, error) {
	if off >= int64(len(r)) {
		return 0, io.EOF
	}
	n := copy(p, r[off:])
	if off+int64(n) == int64(len(r)) {
		return n, io.EOF
	}
	return n, nil
}

// TestKernelReaderAtEOF opens raw and compressed databases through
// storage.OpenReaderAt over an EOF-at-end source and checks that the
// kernel selects exactly what it selects over the file-backed database,
// sequentially and chunked.
func TestKernelReaderAtEOF(t *testing.T) {
	lowerParallelKnobs(t)
	rng := rand.New(rand.NewSource(17))
	prog := testutil.RandomProgramParsed(rng, 4, 8)
	c, err := Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	tr := testutil.RandomTree(rng, 3000)
	for _, codec := range []uint8{storage.CodecRaw, storage.CodecLZ} {
		base := filepath.Join(t.TempDir(), "db")
		fileDB, err := storage.CreateFromTree(base, tr)
		if err != nil {
			t.Fatal(err)
		}
		fileDB.Close()
		if codec != storage.CodecRaw {
			if _, err := storage.CompressInPlace(base, codec, 4096); err != nil {
				t.Fatal(err)
			}
		}
		fileDB, err = storage.Open(base)
		if err != nil {
			t.Fatal(err)
		}
		defer fileDB.Close()
		raw, err := os.ReadFile(base + ".arb")
		if err != nil {
			t.Fatal(err)
		}
		eofDB, err := storage.OpenReaderAt(base, eofReaderAt(raw), int64(len(raw)))
		if err != nil {
			t.Fatalf("codec %d: OpenReaderAt: %v", codec, err)
		}
		for _, workers := range []int{1, 2} {
			want, _, err := runDisk(NewEngine(c, fileDB.Names), fileDB, workers, DiskBatchOpts{})
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := runDisk(NewEngine(c, eofDB.Names), eofDB, workers, DiskBatchOpts{})
			if err != nil {
				t.Fatalf("codec %d workers %d: EOF-at-end source: %v", codec, workers, err)
			}
			sameResults(t, prog, tr.Len(), got, want, fmt.Sprintf("codec %d workers %d: EOF-at-end vs file", codec, workers))
		}
	}
}

// TestKernelAllocs is the zero-allocations-per-node gate: a warm solo
// run allocates the same small number of objects (results, caches, the
// state file handle) whatever the database size, because the kernel
// steps pooled blocks and a depth-bounded stack.
func TestKernelAllocs(t *testing.T) {
	c, err := Compile(benchProgram(t))
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(n int) float64 {
		base := filepath.Join(t.TempDir(), "db")
		db, err := workload.CreateFlatDB(base, workload.Sequence(4, n-1))
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		e := NewEngine(c, db.Names)
		run := func() {
			if _, _, err := RunDiskBatch(context.Background(), db, Solo(e), DiskBatchOpts{}); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the automata, the index and the block pool
		return testing.AllocsPerRun(10, run)
	}
	small, large := allocs(1<<15), allocs(1<<17)
	t.Logf("allocations per run: %v at 2^15 nodes, %v at 2^17", small, large)
	// A per-node or per-block allocation would add thousands (or at
	// least a handful) at 4× the size; the slack absorbs pool refills.
	if large > small+2 {
		t.Fatalf("allocations grow with the database: %v at 2^15 nodes, %v at 2^17", small, large)
	}
}

// FuzzScanKernel treats arbitrary bytes as a raw .arb file: a solo run of
// the kernel must either fail — exactly when the records do not encode a
// tree — or select exactly the naive oracle's nodes over the tree
// db.ReadTree decodes. Seeded with the malformed shapes above.
func FuzzScanKernel(f *testing.F) {
	f.Add(records(storage.Record{Label: 256}))
	f.Add(records(storage.Record{Label: 256, HasFirst: true}))
	f.Add(records(storage.Record{Label: 256, HasFirst: true}, storage.Record{Label: 257, HasSecond: true}))
	f.Add(records(storage.Record{Label: 256, HasFirst: true}, storage.Record{Label: 257}, storage.Record{Label: 256}))
	f.Add(records(
		storage.Record{Label: 256, HasFirst: true},
		storage.Record{Label: 257, HasFirst: true, HasSecond: true},
		storage.Record{Label: 'x'},
		storage.Record{Label: 256, HasSecond: true},
		storage.Record{Label: 257}))
	var buf bytes.Buffer
	for i := 0; i < 64; i++ {
		buf.Write(records(storage.Record{Label: uint16(256 + i%2), HasSecond: i < 63}))
	}
	f.Add(buf.Bytes())
	c := kernelProgram(f)
	f.Fuzz(func(t *testing.T, arb []byte) {
		if len(arb) == 0 || len(arb)%storage.NodeSize != 0 || len(arb) > 1<<12 {
			return
		}
		base := filepath.Join(t.TempDir(), "db")
		writeArb(t, base, arb)
		db, err := storage.Open(base)
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		res, _, kerr := RunDiskBatch(context.Background(), db, Solo(NewEngine(c, db.Names)), DiskBatchOpts{})
		tr, terr := db.ReadTree(context.Background())
		if (kerr == nil) != (terr == nil) {
			t.Fatalf("kernel error %v, ReadTree error %v", kerr, terr)
		}
		if kerr != nil {
			return
		}
		sameResults(t, c.Prog, tr.Len(), res[0], naive.Evaluate(tr, c.Prog), "kernel vs naive")
	})
}
