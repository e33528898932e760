package storage

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"arb/internal/tree"
)

func TestRecordRoundTrip(t *testing.T) {
	f := func(label uint16, hasFirst, hasSecond bool) bool {
		label &= labelMask
		r := Record{Label: label, HasFirst: hasFirst, HasSecond: hasSecond}
		return DecodeRecord(r.Encode()) == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRecordLayoutPaperExample(t *testing.T) {
	// Section 5: two high bits are the child flags, the rest the label.
	r := Record{Label: 0x1234, HasFirst: true, HasSecond: false}
	if got := r.Encode(); got != 0x8000|0x1234 {
		t.Fatalf("encoded %04x", got)
	}
	r = Record{Label: 3, HasFirst: true, HasSecond: true}
	if got := r.Encode(); got != 0xC003 {
		t.Fatalf("encoded %04x", got)
	}
}

func TestFigure1TreeSerialisation(t *testing.T) {
	// The paper's Section 5 byte-layout example: Figure 1(b) serialises
	// as v1(1,1) v2(1,0) v4(0,0) v5(0,1) v6(0,0) v3(0,0), where (f,s)
	// are the child flags and nodes appear in preorder.
	tr := tree.New(nil)
	var l [7]tree.Label
	for i := 1; i <= 6; i++ {
		l[i] = tr.Names().MustIntern(fmt.Sprintf("l%d", i))
	}
	v1 := tr.AddNode(l[1])
	v2 := tr.AddNode(l[2])
	v4 := tr.AddNode(l[4])
	v5 := tr.AddNode(l[5])
	v6 := tr.AddNode(l[6])
	v3 := tr.AddNode(l[3])
	tr.SetFirst(v1, v2)
	tr.SetSecond(v1, v3)
	tr.SetFirst(v2, v4)
	tr.SetSecond(v2, v5)
	tr.SetFirst(v5, v6)
	if err := tr.CheckPreorder(); err != nil {
		t.Fatal(err)
	}

	base := filepath.Join(t.TempDir(), "fig1")
	db, err := CreateFromTree(base, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	raw, err := os.ReadFile(base + ".arb")
	if err != nil {
		t.Fatal(err)
	}
	type rec struct {
		label         tree.Label
		first, second bool
	}
	want := []rec{
		{l[1], true, true}, {l[2], true, true}, {l[4], false, false},
		{l[5], true, false}, {l[6], false, false}, {l[3], false, false},
	}
	if len(raw) != len(want)*NodeSize {
		t.Fatalf(".arb has %d bytes, want %d", len(raw), len(want)*NodeSize)
	}
	for i, w := range want {
		r := DecodeRecord(binary.BigEndian.Uint16(raw[2*i:]))
		if tree.Label(r.Label) != w.label || r.HasFirst != w.first || r.HasSecond != w.second {
			t.Fatalf("record %d = %+v, want %+v", i, r, w)
		}
	}
}

func TestCreateRoundTrip(t *testing.T) {
	// Document events -> .evt -> backward pass -> .arb -> ReadTree must
	// equal the tree built directly from the same events.
	feed := func(h tree.EventHandler) error {
		if err := h.Begin("a"); err != nil {
			return err
		}
		if err := h.Text([]byte("hi")); err != nil {
			return err
		}
		for _, tag := range []string{"b", "c"} {
			if err := h.Begin(tag); err != nil {
				return err
			}
			if err := h.End(); err != nil {
				return err
			}
		}
		return h.End()
	}
	base := filepath.Join(t.TempDir(), "db")
	db, stats, err := Create(base, func(ew *EventWriter) error { return feed(ew) }, CreateOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if stats.ElemNodes != 3 || stats.CharNodes != 2 {
		t.Fatalf("stats %+v", stats)
	}
	got, err := db.ReadTree(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	b := tree.NewBuilder(nil)
	if err := feed(b); err != nil {
		t.Fatal(err)
	}
	want, err := b.Tree()
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("round trip:\n got %s\nwant %s", got, want)
	}
	// The event file is deleted by default.
	if _, err := os.Stat(base + ".evt"); !os.IsNotExist(err) {
		t.Fatal(".evt not cleaned up")
	}
}

func TestCreateKeepEvt(t *testing.T) {
	base := filepath.Join(t.TempDir(), "db")
	db, stats, err := Create(base, func(ew *EventWriter) error {
		if err := ew.Begin("a"); err != nil {
			return err
		}
		return ew.End()
	}, CreateOpts{KeepEvt: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	st, err := os.Stat(base + ".evt")
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != stats.EvtBytes || st.Size() != 4 {
		t.Fatalf(".evt size %d, stats %d", st.Size(), stats.EvtBytes)
	}
}

func TestCreateErrors(t *testing.T) {
	dir := t.TempDir()
	cases := map[string]func(*EventWriter) error{
		"empty":      func(ew *EventWriter) error { return nil },
		"unbalanced": func(ew *EventWriter) error { return ew.Begin("a") },
		"extra-end": func(ew *EventWriter) error {
			if err := ew.Begin("a"); err != nil {
				return err
			}
			if err := ew.End(); err != nil {
				return err
			}
			return ew.End()
		},
	}
	for name, feed := range cases {
		if _, _, err := Create(filepath.Join(dir, name), feed, CreateOpts{}); err == nil {
			t.Errorf("%s: Create succeeded, want error", name)
		}
	}
}

func TestBackwardReaderAllSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{0, 1, 2, 255, 256, 257, 70000} {
		data := make([]byte, 2*n)
		rng.Read(data)
		f, err := os.CreateTemp(t.TempDir(), "back")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(data); err != nil {
			t.Fatal(err)
		}
		br, err := NewBackwardReader(f, int64(len(data)), 2)
		if err != nil {
			t.Fatal(err)
		}
		for i := n - 1; i >= 0; i-- {
			b, err := br.Next()
			if err != nil {
				t.Fatalf("n=%d unit %d: %v", n, i, err)
			}
			if !bytes.Equal(b, data[2*i:2*i+2]) {
				t.Fatalf("n=%d unit %d: got %x want %x", n, i, b, data[2*i:2*i+2])
			}
		}
		if _, err := br.Next(); err == nil {
			t.Fatalf("n=%d: read past the beginning", n)
		}
		f.Close()
	}
}

func TestBackwardWriterMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 3, 1000, 65536, 70001} {
		data := make([]byte, n)
		rng.Read(data)
		path := filepath.Join(t.TempDir(), "w")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		bw := NewBackwardWriter(f, int64(n))
		for i := n - 1; i >= 0; i-- {
			bw.Prepend(data[i : i+1])
		}
		if err := bw.Close(); err != nil {
			t.Fatal(err)
		}
		f.Close()
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("n=%d: backward-written file differs", n)
		}
	}
}

// TestScansAgreeWithTree checks both scan orders against the in-memory
// tree on random inputs, including Proposition 5.1's stack bound.
func TestScansAgreeWithTree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 20; iter++ {
		tr := randomDoc(rng, 200)
		base := filepath.Join(t.TempDir(), "db")
		db, err := CreateFromTree(base, tr)
		if err != nil {
			t.Fatal(err)
		}
		docDepth := tree.DocDepth(tr)

		// Top-down: records must arrive in preorder with correct parents.
		type info struct{ v int64 }
		var visited []int64
		stats, err := ScanTopDown(context.Background(), db, func(v int64, rec Record, parent *info, k int) (info, error) {
			visited = append(visited, v)
			if tree.Label(rec.Label) != tr.Label(tree.NodeID(v)) {
				return info{}, fmt.Errorf("label mismatch at %d", v)
			}
			if parent != nil {
				p := tree.NodeID(parent.v)
				var c tree.NodeID
				if k == 1 {
					c = tr.First(p)
				} else {
					c = tr.Second(p)
				}
				if c != tree.NodeID(v) {
					return info{}, fmt.Errorf("node %d is not child %d of %d", v, k, p)
				}
			}
			return info{v}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(visited) != tr.Len() || stats.MaxStack > docDepth {
			t.Fatalf("visited %d nodes (want %d), stack %d (doc depth %d)",
				len(visited), tr.Len(), stats.MaxStack, docDepth)
		}
		for i, v := range visited {
			if int64(i) != v {
				t.Fatalf("not preorder at %d: %d", i, v)
			}
		}

		// Bottom-up: fold subtree sizes.
		size, stats2, err := FoldBottomUp(context.Background(), db, func(first, second *int64, rec Record, v int64) int64 {
			s := int64(1)
			if first != nil {
				s += *first
			}
			if second != nil {
				s += *second
			}
			return s
		})
		if err != nil {
			t.Fatal(err)
		}
		if size != int64(tr.Len()) {
			t.Fatalf("folded size %d, want %d", size, tr.Len())
		}
		if stats2.MaxStack > docDepth+1 {
			t.Fatalf("bottom-up stack %d for doc depth %d", stats2.MaxStack, docDepth)
		}
		db.Close()
	}
}

// randomDoc builds a random document tree (as opposed to an arbitrary
// binary tree) so document-depth bounds are meaningful.
func randomDoc(rng *rand.Rand, maxNodes int) *tree.Tree {
	b := tree.NewBuilder(nil)
	budget := 1 + rng.Intn(maxNodes)
	var gen func(depth int)
	gen = func(depth int) {
		budget--
		must(b.Begin([]string{"a", "b", "c"}[rng.Intn(3)]))
		for budget > 0 && depth < 10 && rng.Intn(3) > 0 {
			if rng.Intn(5) == 0 {
				budget--
				must(b.Text([]byte{'x'}))
			} else {
				gen(depth + 1)
			}
		}
		must(b.End())
	}
	gen(0)
	t, err := b.Tree()
	if err != nil {
		panic(err)
	}
	return t
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

func TestMalformedArbRejected(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "bad")
	// Root claims a first child but the file has one record.
	raw := make([]byte, 2)
	binary.BigEndian.PutUint16(raw, Record{Label: 300, HasFirst: true}.Encode())
	if err := os.WriteFile(base+".arb", raw, 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := Open(base)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := ScanTopDown(context.Background(), db, func(v int64, rec Record, parent *int, k int) (int, error) {
		return 0, nil
	}); err == nil {
		t.Fatal("forward scan accepted a truncated database")
	}
	if _, _, err := FoldBottomUp(context.Background(), db, func(first, second *int, rec Record, v int64) int {
		return 0
	}); err == nil {
		t.Fatal("backward scan accepted a truncated database")
	}

	// Odd file size.
	if err := os.WriteFile(base+"2.arb", []byte{1, 2, 3}, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(base + "2"); err == nil {
		t.Fatal("Open accepted an odd-sized .arb")
	}
}

func TestCreateBinaryValidation(t *testing.T) {
	dir := t.TempDir()
	bad := map[string]func(emit RecordSink) error{
		"empty": func(emit RecordSink) error { return nil },
		"incomplete": func(emit RecordSink) error {
			return emit(300, true, false) // announces a child that never comes
		},
		"second-tree": func(emit RecordSink) error {
			if err := emit(300, false, false); err != nil {
				return err
			}
			return emit(300, false, false)
		},
		"label-overflow": func(emit RecordSink) error {
			return emit(tree.Label(labelMask+1), false, false)
		},
	}
	for name, feed := range bad {
		if _, err := CreateBinary(filepath.Join(dir, name), tree.NewNames(), feed); err == nil {
			t.Errorf("%s: CreateBinary succeeded, want error", name)
		}
	}
}

func TestEmitXMLEscaping(t *testing.T) {
	tr := tree.New(nil)
	a := tr.Names().MustIntern("a")
	root := tr.AddNode(a)
	prev := tree.None
	for _, c := range []byte("<&>\"x") {
		n := tr.AddNode(tree.Label(c))
		if prev == tree.None {
			tr.SetFirst(root, n)
		} else {
			tr.SetSecond(prev, n)
		}
		prev = n
	}
	base := filepath.Join(t.TempDir(), "esc")
	db, err := CreateFromTree(base, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	var buf bytes.Buffer
	if err := EmitXMLContext(context.Background(), db, &buf, nil); err != nil {
		t.Fatal(err)
	}
	want := "<a>&lt;&amp;&gt;&quot;x</a>"
	if got := buf.String(); got != want {
		t.Fatalf("EmitXML = %q, want %q", got, want)
	}
}

func TestEmitXMLSelection(t *testing.T) {
	tr := tree.New(nil)
	a := tr.Names().MustIntern("a")
	b := tr.Names().MustIntern("b")
	root := tr.AddNode(a)
	c1 := tr.AddNode(b)
	c2 := tr.AddNode(b)
	tr.SetFirst(root, c1)
	tr.SetSecond(c1, c2)
	base := filepath.Join(t.TempDir(), "sel")
	db, err := CreateFromTree(base, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	var buf bytes.Buffer
	if err := EmitXMLContext(context.Background(), db, &buf, func(v int64) bool { return v == 2 }); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	if got != `<a><b/><b arb:selected="true"/></a>` {
		t.Fatalf("EmitXML = %q", got)
	}
}

// TestRoundTripProperty is the storage round-trip as a testing/quick
// property: any document tree survives tree -> .arb -> tree unchanged.
func TestRoundTripProperty(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(13))
	i := 0
	f := func(seed int64) bool {
		i++
		tr := randomDoc(rand.New(rand.NewSource(seed)), 120)
		base := filepath.Join(dir, fmt.Sprintf("db%d", i))
		db, err := CreateFromTree(base, tr)
		if err != nil {
			t.Logf("CreateFromTree: %v", err)
			return false
		}
		defer db.Close()
		got, err := db.ReadTree(context.Background())
		if err != nil {
			t.Logf("ReadTree: %v", err)
			return false
		}
		return got.String() == tr.String()
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
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

// TestReaderAtEOF checks that BackwardReader, Blocks and the generic
// scans over OpenReaderAt accept the (len(p), io.EOF) a ReaderAt may
// return for a read ending at the end of its input, and still report a
// genuinely short read.
func TestReaderAtEOF(t *testing.T) {
	data := make([]byte, 2*3000)
	for i := 0; i < 3000; i++ {
		binary.BigEndian.PutUint16(data[2*i:], uint16(i))
	}
	br, err := NewBackwardReader(eofReaderAt(data), int64(len(data)), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer br.Release()
	for want := 2999; want >= 0; want-- {
		b, err := br.Next()
		if err != nil {
			t.Fatalf("BackwardReader at unit %d: %v", want, err)
		}
		if got := binary.BigEndian.Uint16(b); got != uint16(want) {
			t.Fatalf("BackwardReader unit %d, want %d", got, want)
		}
	}
	blk := NewBlocks(eofReaderAt(data), 2)
	defer blk.Release()
	if _, err := blk.Read(max(0, 3000-blk.Len()), 3000); err != nil {
		t.Fatalf("Blocks read ending at the end: %v", err)
	}
	if _, err := blk.Read(2999, 3001); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("Blocks read past the end: %v, want io.ErrUnexpectedEOF", err)
	}

	tr := randomDoc(rand.New(rand.NewSource(3)), 2000)
	base := filepath.Join(t.TempDir(), "db")
	fileDB, err := CreateFromTree(base, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer fileDB.Close()
	raw, err := os.ReadFile(base + ".arb")
	if err != nil {
		t.Fatal(err)
	}
	db, err := OpenReaderAt(base, eofReaderAt(raw), int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	got, err := db.ReadTree(context.Background())
	if err != nil {
		t.Fatalf("ReadTree over an EOF-at-end source: %v", err)
	}
	if got.Len() != tr.Len() {
		t.Fatalf("ReadTree read %d nodes, want %d", got.Len(), tr.Len())
	}
	if _, _, err := FoldBottomUp(context.Background(), db, func(first, second *int, rec Record, v int64) int { return 0 }); err != nil {
		t.Fatalf("FoldBottomUp over an EOF-at-end source: %v", err)
	}
}
