package storage

import (
	"fmt"
	"io"
	"os"
	"sync"
)

// defaultBufSize is the buffer size for the sequential writes of database
// creation and output.
const defaultBufSize = 1 << 18

// scanBufSize is the block size of the scans: records, phase-1 state
// vectors and aux masks are read a block at a time with one ReadAt (and
// state vectors and masks written with one WriteAt), forwards or
// backwards, so the disk sees large (reverse-)sequential transfers and
// the per-node loops touch only memory. A query holds a few blocks at
// once — records, states, aux in and out — and the pool below keeps them
// live between queries, so they are sized for per-call overhead well
// under the per-node work of a block, not larger.
const scanBufSize = 1 << 16

// backBufPool recycles scan blocks (Blocks, BackwardReader) across
// scans: every scan, and every worker of a parallel run, takes a few,
// and pooling keeps allocation flat however many queries run. Owners
// return their buffer through Release.
var backBufPool = sync.Pool{
	New: func() interface{} { return make([]byte, scanBufSize) },
}

// getBuf returns a pooled scan buffer of at least n bytes.
func getBuf(n int) []byte {
	raw := backBufPool.Get().([]byte)
	if len(raw) < n {
		backBufPool.Put(raw)
		raw = make([]byte, n)
	}
	return raw
}

// ReadFullAt fills p from r at offset off. io.ReaderAt lets a read that
// ends exactly at the end of the input return (len(p), io.EOF); that is
// a full read. A short read reports io.ErrUnexpectedEOF.
func ReadFullAt(r io.ReaderAt, p []byte, off int64) error {
	n, err := r.ReadAt(p, off)
	if n == len(p) {
		return nil
	}
	if err == nil || err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return err
}

// Blocks is a pooled scan block over a file addressed in fixed-size
// units — 2-byte records, one node's state vector, one node's aux masks.
// Read fetches a unit range with one ReadAt; Buf lends the buffer for
// building a block to write. A block holds Len units, so the kernels
// step through a region Len nodes at a time, in either direction. Any
// number of Blocks may share one file: they only use ReadAt.
type Blocks struct {
	f    io.ReaderAt
	unit int64
	raw  []byte
}

// NewBlocks returns a block of whole unit-byte units over f (nil for a
// write-only block). Release returns its buffer to the pool.
func NewBlocks(f io.ReaderAt, unit int) *Blocks {
	return &Blocks{f: f, unit: int64(unit), raw: getBuf(unit)}
}

// Len returns the number of units a block holds.
func (b *Blocks) Len() int64 { return int64(len(b.raw)) / b.unit }

// Read reads units [lo, hi) (at most Len of them) with one ReadAt; the
// returned slice is valid until the next Read or Buf.
func (b *Blocks) Read(lo, hi int64) ([]byte, error) {
	p := b.raw[:(hi-lo)*b.unit]
	if err := ReadFullAt(b.f, p, lo*b.unit); err != nil {
		return nil, err
	}
	return p, nil
}

// Buf returns the buffer space of n units (at most Len).
func (b *Blocks) Buf(n int64) []byte { return b.raw[:n*b.unit] }

// Release returns the buffer to the pool; the block must not be used
// afterwards.
func (b *Blocks) Release() {
	if b.raw != nil {
		backBufPool.Put(b.raw)
		b.raw = nil
	}
}

// BackwardReader reads a file from a given offset back towards offset 0
// in fixed-size units, buffering a block at a time — the unit-at-a-time
// form of Blocks, used to read the event file backwards during database
// creation. Because it uses ReadAt exclusively, any number of
// BackwardReaders may share one file handle concurrently.
type BackwardReader struct {
	f        io.ReaderAt
	pos      int64 // file offset of the start of buf's valid region
	raw      []byte
	buf      []byte
	have     int // number of valid bytes at the end of buf region
	unitSize int
}

// NewBackwardReader returns a reader over f positioned at offset end,
// yielding units of unitSize bytes from the end backwards to offset 0;
// Next returns io.EOF once offset 0 is reached. end must be a multiple
// of unitSize.
func NewBackwardReader(f io.ReaderAt, end int64, unitSize int) (*BackwardReader, error) {
	if end < 0 || end%int64(unitSize) != 0 {
		return nil, fmt.Errorf("storage: section size %d not a multiple of unit size %d", end, unitSize)
	}
	raw := getBuf(unitSize)
	return &BackwardReader{f: f, pos: end, unitSize: unitSize, raw: raw,
		buf: raw[:len(raw)/unitSize*unitSize]}, nil
}

// Release returns the reader's buffer to the shared pool. The reader (and
// any slice Next returned) must not be used afterwards. Releasing is
// optional — an unreleased buffer is simply garbage-collected.
func (r *BackwardReader) Release() {
	if r.raw != nil {
		backBufPool.Put(r.raw)
		r.raw, r.buf, r.have = nil, nil, 0
	}
}

// Next returns the next unit (moving backwards), or io.EOF when the start
// of the section has been reached. The returned slice is valid until the
// following call.
func (r *BackwardReader) Next() ([]byte, error) {
	if r.have == 0 {
		if r.pos == 0 {
			return nil, io.EOF
		}
		n := min(int64(len(r.buf)), r.pos)
		r.pos -= n
		if err := ReadFullAt(r.f, r.buf[:n], r.pos); err != nil {
			return nil, err
		}
		r.have = int(n)
	}
	r.have -= r.unitSize
	return r.buf[r.have : r.have+r.unitSize], nil
}

// BackwardWriter writes a file back-to-front: the first Prepend call
// produces the bytes at the end of the file, the last one the bytes at
// offset 0. The total size must be known in advance. Writes are buffered
// so the disk sees large reverse-sequential writes.
type BackwardWriter struct {
	f    *os.File
	pos  int64 // file offset just past the next flush region
	buf  []byte
	used int // bytes currently occupied at the *end* of buf
	err  error
}

// NewBackwardWriter returns a writer that will fill f from offset size
// down to 0.
func NewBackwardWriter(f *os.File, size int64) *BackwardWriter {
	return &BackwardWriter{f: f, pos: size, buf: make([]byte, defaultBufSize)}
}

// Prepend writes b logically before everything written so far.
func (w *BackwardWriter) Prepend(b []byte) {
	if w.err != nil {
		return
	}
	for len(b) > 0 {
		free := len(w.buf) - w.used
		if free == 0 {
			w.flush()
			if w.err != nil {
				return
			}
			free = len(w.buf)
		}
		n := len(b)
		if n > free {
			n = free
		}
		// Copy the *tail* of b into the space just before the currently
		// used region at the end of buf.
		copy(w.buf[len(w.buf)-w.used-n:len(w.buf)-w.used], b[len(b)-n:])
		w.used += n
		b = b[:len(b)-n]
	}
}

func (w *BackwardWriter) flush() {
	if w.used == 0 || w.err != nil {
		return
	}
	start := w.pos - int64(w.used)
	if start < 0 {
		w.err = fmt.Errorf("storage: backward writer overflow (wrote past offset 0)")
		return
	}
	if _, err := w.f.WriteAt(w.buf[len(w.buf)-w.used:], start); err != nil {
		w.err = err
		return
	}
	w.pos = start
	w.used = 0
}

// Close flushes the writer and verifies the file was filled exactly.
func (w *BackwardWriter) Close() error {
	w.flush()
	if w.err != nil {
		return w.err
	}
	if w.pos != 0 {
		return fmt.Errorf("storage: backward writer finished at offset %d, want 0", w.pos)
	}
	return nil
}
