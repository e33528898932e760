package vstore

import (
	"fmt"
	"io"
	"sort"

	"arb/internal/storage"
)

// run is the in-memory form of a manifest run: one contiguous logical
// node range served from one physical range of one open segment.
type run struct {
	seg     *segment
	logical int64 // first logical node of the run
	phys    int64 // first physical node within the segment
	count   int64 // nodes in the run
}

// stitchedReader serves a version's logical record space [0, n*NodeSize)
// by translating ReadAt offsets through the run table — the io.ReaderAt
// behind every snapshot's virtual storage.DB. It is immutable after
// construction, so any number of concurrent scans may share it; the
// underlying segment sources (*os.File handles and decompressing block
// readers alike) are themselves safe for concurrent ReadAt.
type stitchedReader struct {
	runs []run // sorted by logical, tiling [0, n)
	size int64 // n * NodeSize
}

func newStitchedReader(runs []run, n int64) *stitchedReader {
	return &stitchedReader{runs: runs, size: n * storage.NodeSize}
}

// ReadAt implements io.ReaderAt over the stitched logical space. Reads
// spanning a run boundary are assembled from the underlying segments;
// reads past the end return io.EOF per the ReaderAt contract.
func (sr *stitchedReader) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("vstore: negative read offset %d", off)
	}
	n := 0
	for n < len(p) && off < sr.size {
		// The run containing byte offset off: the last run whose start is
		// at or before it.
		i := sort.Search(len(sr.runs), func(i int) bool {
			return sr.runs[i].logical*storage.NodeSize > off
		}) - 1
		r := sr.runs[i]
		runStart := r.logical * storage.NodeSize
		runEnd := runStart + r.count*storage.NodeSize
		chunk := int64(len(p) - n)
		if rest := runEnd - off; chunk > rest {
			chunk = rest
		}
		if err := storage.ReadFullAt(r.seg.src, p[n:n+int(chunk)], r.phys*storage.NodeSize+(off-runStart)); err != nil {
			return n, err // a short segment: the manifest promised these bytes
		}
		n += int(chunk)
		off += chunk
	}
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}
