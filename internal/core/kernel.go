package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"sync"
	"time"

	"arb/internal/storage"
)

// The disk kernel is one phase-1 loop (scanner.up) and one phase-2 loop
// (scanner.down). Both step a region of the document a block at a time:
// one ReadAt fetches up to 64 KB of .arb records (storage.Blocks), the
// matching state-file slice and aux masks come in with one ReadAt each,
// and each block's state vectors and output masks leave with one
// WriteAt. Between those calls the loop only decodes record bits and
// indexes the members' dense transition tables (BatchCache) over a flat
// stack of nm-wide state vectors. The same two loops run the sequential
// scans, every worker chunk of a parallel run and the leader's glue
// around the chunks: a pruned extent or a worker's chunk is a hole in a
// region, and a block never crosses one.

// kernelRun is the wiring one disk evaluation attempt shares between its
// scanners: the members, the state file and aux sidecars, the results.
type kernelRun struct {
	db      *storage.DB
	members []BatchMember
	nm      int
	width   int // bytes per member state id in the state file
	stride  int // state-file bytes per node: nm*width
	res     []*Result

	stateF *os.File
	auxIn  *os.File // nil: no aux input
	auxOut *os.File // nil: no aux output
	inW    int      // aux input bytes per node
	outW   int      // aux output bytes per node

	em      *storage.XMLEmitter // marked output; nil: none
	markBit uint64
}

// scanner is one goroutine's kernel state: its private dense caches, the
// flat state stack, pooled blocks and the scan statistics of the region
// it last scanned. Workers keep one scanner across their chunks and both
// phases.
type scanner struct {
	*kernelRun
	cs     []*BatchCache
	cancel storage.Canceller
	chunk  bool  // scanning a worker chunk: structure errors are ErrBadExtent
	bn     int64 // nodes per block

	recs, states, in, out *storage.Blocks

	// stack holds nm-wide vectors: the subtree results of phase 1, the
	// pending top-down vectors of phase 2.
	stack  []StateID
	maxLen int // the stack's peak length this region (ScanStats.MaxStack × nm)
	st     storage.ScanStats

	// parent is the stack offset of the next phase-2 node's parent vector
	// (-1: the region's root), k its child position, end the region end.
	// A first child's vector is computed into the slot its parent occupies
	// when the parent has no second child, and a second child's into the
	// slot its parent's vector is popped from: each member's step reads
	// the parent's entry before overwriting it.
	parent, k int
	end       int64

	// local, when non-nil, collects a worker's marks per member and query
	// as bitset words from word w0; nil marks the results directly.
	local [][][]uint64
	w0    int64
}

func (r *kernelRun) newScanner(ctx context.Context, cs []*BatchCache) *scanner {
	recs := storage.NewBlocks(r.db.Records(), storage.NodeSize)
	states := storage.NewBlocks(r.stateF, r.stride)
	s := &scanner{kernelRun: r, cs: cs, cancel: storage.NewCanceller(ctx), recs: recs, states: states,
		bn: min(recs.Len(), states.Len()), stack: make([]StateID, 0, 64*r.nm)}
	if r.auxIn != nil {
		in := storage.NewBlocks(r.auxIn, r.inW)
		s.in, s.bn = in, min(s.bn, in.Len())
	}
	if r.auxOut != nil {
		out := storage.NewBlocks(nil, r.outW)
		s.out, s.bn = out, min(s.bn, out.Len())
	}
	return s
}

func (s *scanner) release() {
	for _, b := range []*storage.Blocks{s.recs, s.states, s.in, s.out} {
		if b != nil {
			b.Release()
		}
	}
}

// bad reports a structure error; inside a worker chunk it is evidence of
// a stale index (storage.ErrBadExtent), which the parallel driver
// answers with an index rebuild.
func (s *scanner) bad(format string, args ...any) error {
	err := fmt.Errorf(format, args...)
	if s.chunk {
		return fmt.Errorf("%w: %v", storage.ErrBadExtent, err)
	}
	return err
}

// grow pushes one vector on top of the stack's first sp entries. It
// returns the stack's whole capacity, so the loops can still read the
// child vectors just popped above the new top.
func (s *scanner) grow(sp int) []StateID {
	if sp+s.nm > cap(s.stack) {
		s.stack = append(s.stack[:sp], make([]StateID, s.nm)...)
	}
	s.stack = s.stack[:sp+s.nm]
	return s.stack[:cap(s.stack)]
}

// pushed records the stack depth after a push (ScanStats.MaxStack: the
// phase-1 fold's results, the phase-2 nodes awaiting a second subtree).
func (s *scanner) pushed() {
	if len(s.stack) > s.maxLen {
		s.maxLen = len(s.stack)
	}
}

// reset starts a region scan with an empty stack and zero statistics.
func (s *scanner) reset() {
	s.stack, s.maxLen, s.st = s.stack[:0], 0, storage.ScanStats{}
}

// up folds the nodes [lo, hi) bottom-up in reverse preorder (phase 1),
// writing every node's state vector to the state file. The extents in
// skip (sorted, disjoint, inside [lo, hi)) are holes: hole i is not read
// and subs[i] stands in for its root's vector. The region's subtree
// results are left on the stack.
func (s *scanner) up(lo, hi int64, skip []storage.Extent, subs [][]StateID) error {
	s.reset()
	cur := hi
	for i := len(skip) - 1; i >= -1; i-- {
		rlo := lo
		if i >= 0 {
			rlo = skip[i].End()
			if rlo > cur || skip[i].Root < lo {
				return s.bad("storage: skip extents unsorted, overlapping or out of range")
			}
		}
		if err := s.upRegion(rlo, cur); err != nil {
			return err
		}
		if i >= 0 {
			sp := len(s.stack)
			copy(s.grow(sp)[sp:], subs[i])
			s.pushed()
			s.st.Nodes += skip[i].Size
			cur = skip[i].Root
		}
	}
	s.st.MaxStack = s.maxLen / s.nm
	return nil
}

// upRegion is phase 1 over one hole-free range, a block at a time from
// its end.
func (s *scanner) upRegion(lo, hi int64) error {
	s.st.PhysicalBytes += s.db.PhysSpan(lo, hi)
	nm, width, stride, inW := s.nm, s.width, int64(s.stride), int64(s.inW)
	for bhi := hi; bhi > lo; {
		blo := max(lo, bhi-s.bn)
		recs, err := s.recs.Read(blo, bhi)
		if err != nil {
			return s.bad("storage: backward scan: %w", err)
		}
		var aux []byte
		if s.in != nil {
			if aux, err = s.in.Read(blo, bhi); err != nil {
				return fmt.Errorf("core: reading aux file: %w", err)
			}
		}
		out := s.states.Buf(bhi - blo)
		for v := bhi - 1; v >= blo; v-- {
			if err := s.cancel.Step(); err != nil {
				return err
			}
			i := v - blo
			rec := binary.BigEndian.Uint16(recs[i*storage.NodeSize:])
			sp, first, second := len(s.stack), -1, -1
			if rec&storage.FlagFirst != 0 {
				if sp < nm {
					return s.bad("storage: malformed .arb: missing first subtree at node %d", v)
				}
				sp -= nm
				first = sp
			}
			if rec&storage.FlagSecond != 0 {
				if sp < nm {
					return s.bad("storage: malformed .arb: missing second subtree at node %d", v)
				}
				sp -= nm
				second = sp
			}
			st := s.grow(sp)
			s.pushed()
			row := out[(bhi-1-v)*stride:]
			for m := 0; m < nm; m++ {
				left, right := NoState, NoState
				if first >= 0 {
					left = st[first+m]
				}
				if second >= 0 {
					right = st[second+m]
				}
				var extra uint16
				if aux != nil {
					if slot := s.members[m].AuxInSlot; slot >= 0 {
						extra = binary.BigEndian.Uint16(aux[i*inW+int64(slot)*storage.MaskSize:])
					}
				}
				c := s.cs[m]
				id := c.BUStep(left, right, c.SigID(rec, v == 0, extra))
				st[sp+m] = id
				if err := putState(row[m*width:], width, id); err != nil {
					return err
				}
			}
		}
		if _, err := s.stateF.WriteAt(out, (s.db.N-bhi)*stride); err != nil {
			return fmt.Errorf("core: writing state file: %w", err)
		}
		s.st.Nodes += bhi - blo
		s.st.Bytes += (bhi - blo) * storage.NodeSize
		bhi = blo
	}
	return nil
}

// down scans the nodes [lo, hi) top-down in preorder (phase 2), reading
// records forwards and the matching state-file slice backwards, marking
// every member's selected nodes and writing aux masks and marked output.
// The region's root has no parent inside it: its phase-1 vector must be
// rootBU, and its top-down vector is entry (nil: the document root's,
// step 2 of Algorithm 4.6). skip lists holes as in up; enter, when
// non-nil, is called for hole i with the vector of the parent its root
// would have had (nil at the document root) and its child position.
func (s *scanner) down(lo, hi int64, skip []storage.Extent, rootBU, entry []StateID, enter func(i int, parent []StateID, k int) error) error {
	s.reset()
	s.parent, s.k, s.end = -1, 0, hi
	nm := s.nm
	v, si := lo, 0
	for v < hi {
		gapEnd := hi
		if si < len(skip) {
			if skip[si].Root < v {
				return s.bad("storage: skip extents unsorted, overlapping or out of range")
			}
			gapEnd = skip[si].Root
		}
		s.st.PhysicalBytes += s.db.PhysSpan(v, gapEnd)
		for v < gapEnd {
			blo, bhi := v, min(gapEnd, v+s.bn)
			if err := s.downBlock(blo, bhi, rootBU, entry); err != nil {
				return err
			}
			v = bhi
		}
		if si < len(skip) {
			x := skip[si]
			if x.Size <= 0 || x.End() > hi {
				return s.bad("storage: skip extent [%d,%d) out of range", x.Root, x.End())
			}
			if enter != nil {
				var pv []StateID
				if s.parent >= 0 {
					pv = s.stack[s.parent : s.parent+nm]
				}
				if err := enter(si, pv, s.k); err != nil {
					return err
				}
			}
			s.st.Nodes += x.Size
			si++
			v = x.End()
			if err := s.next(v); err != nil {
				return err
			}
		}
	}
	if s.parent >= 0 || len(s.stack) > 0 {
		if s.chunk {
			return fmt.Errorf("%w: [%d,%d) ends with %d subtrees missing", storage.ErrBadExtent, lo, hi, len(s.stack)/nm+1)
		}
		return fmt.Errorf("storage: malformed .arb: %d announced subtrees missing at end of file", len(s.stack)/nm+1)
	}
	s.st.MaxStack = s.maxLen / nm
	return nil
}

// next moves phase 2 past a finished subtree ending before node v: the
// parent becomes the nearest node still awaiting its second subtree.
func (s *scanner) next(v int64) error {
	if sp := len(s.stack); sp > 0 {
		s.stack = s.stack[:sp-s.nm]
		s.parent, s.k = sp-s.nm, 2
		return nil
	}
	s.parent, s.k = -1, 0
	if v != s.end {
		return s.bad("storage: malformed .arb: scan ended at node %d of %d", v-1, s.end)
	}
	return nil
}

// downBlock is phase 2 over the nodes [blo, bhi) of one hole-free range.
func (s *scanner) downBlock(blo, bhi int64, rootBU, entry []StateID) error {
	nm, width, stride := s.nm, s.width, int64(s.stride)
	inW, outW := int64(s.inW), int64(s.outW)
	recs, err := s.recs.Read(blo, bhi)
	if err != nil {
		return s.bad("storage: forward scan: %w", err)
	}
	states, err := s.states.Read(s.db.N-bhi, s.db.N-blo)
	if err != nil {
		return fmt.Errorf("core: reading state file: %w", err)
	}
	var aux, out []byte
	if s.in != nil {
		if aux, err = s.in.Read(blo, bhi); err != nil {
			return fmt.Errorf("core: reading aux file: %w", err)
		}
	}
	if s.out != nil {
		out = s.out.Buf(bhi - blo)
		clear(out)
	}
	for v := blo; v < bhi; v++ {
		if err := s.cancel.Step(); err != nil {
			return err
		}
		i := v - blo
		rec := binary.BigEndian.Uint16(recs[i*storage.NodeSize:])
		row := states[(bhi-1-v)*stride:]
		sp := len(s.stack)
		st := s.grow(sp)
		p, k := s.parent, s.k
		var selected bool
		for m := 0; m < nm; m++ {
			bu := getState(row[m*width:], width)
			c := s.cs[m]
			var td StateID
			switch {
			case p >= 0:
				td = c.TDStep(st[p+m], bu, k)
			case bu != rootBU[m]:
				// Phase 1 of this very run computed the region root's
				// state, so a mismatch means the file changed under us.
				return fmt.Errorf("core: state file corrupt: root state %d of node %d, phase 1 computed %d", bu, v, rootBU[m])
			case entry == nil:
				td = c.RootTrueSet(bu)
			default:
				td = entry[m]
			}
			st[sp+m] = td
			mask := c.QueryMask(td)
			if mask != 0 {
				s.markMask(m, mask, v)
			}
			if m == 0 {
				selected = mask&s.markBit != 0
			}
			if out != nil {
				if bm := s.members[m]; bm.AuxOutSlot >= 0 {
					var cur uint16
					if aux != nil && bm.AuxInSlot >= 0 {
						cur = binary.BigEndian.Uint16(aux[i*inW+int64(bm.AuxInSlot)*storage.MaskSize:])
					}
					if mask&(1<<uint(bm.AuxOutQuery)) != 0 {
						cur |= 1 << bm.AuxOutBit
					}
					binary.BigEndian.PutUint16(out[i*outW+int64(bm.AuxOutSlot)*storage.MaskSize:], cur)
				}
			}
		}
		if s.em != nil {
			if err := s.em.Node(v, storage.DecodeRecord(rec), selected); err != nil {
				return err
			}
		}
		// The vector stays pushed only while the node awaits its second
		// subtree.
		if rec&storage.FlagSecond == 0 {
			s.stack = s.stack[:sp]
		} else {
			s.pushed()
		}
		if rec&storage.FlagFirst != 0 {
			s.parent, s.k = sp, 1
		} else if err := s.next(v + 1); err != nil {
			return err
		}
	}
	if out != nil {
		if _, err := s.auxOut.WriteAt(out, blo*outW); err != nil {
			return err
		}
	}
	s.st.Nodes += bhi - blo
	s.st.Bytes += (bhi - blo) * storage.NodeSize
	return nil
}

// markMask records member m's query bitmask for node v.
func (s *scanner) markMask(m int, mask uint64, v int64) {
	if s.local == nil {
		s.res[m].MarkMask(mask, v)
		return
	}
	for qi := 0; mask != 0; qi++ {
		if mask&1 != 0 {
			s.local[m][qi][v/64-s.w0] |= 1 << uint(v%64)
		}
		mask >>= 1
	}
}

// runDiskOnce is one attempt at a disk run at a given state width. tasks are
// the chunks workers fold and scan (none: the leader scans everything,
// the sequential run); plan, when non-nil, lists extents no scan reads.
// The leader scans what the chunks and pruned extents leave over.
func runDiskOnce(ctx context.Context, db *storage.DB, workers int, members []BatchMember, opts DiskBatchOpts, tasks []storage.Extent, width int, plan *PrunePlan) ([]*Result, *DiskStats, error) {
	var agg Stats
	nm := len(members)
	var planExts []storage.Extent
	if plan != nil {
		planExts = plan.Extents
	}
	tasks, inner, outer := SplitPrune(tasks, planExts)
	leaderSkip, taskOf := mergeSkipLists(tasks, outer)
	workers = min(workers, len(tasks))

	r := &kernelRun{db: db, members: members, nm: nm, width: width, stride: nm * width,
		res: make([]*Result, nm), em: opts.Mark.emitter(db.Names), markBit: 1 << uint(opts.Mark.Query)}
	shared := make([]*SharedEngine, nm)
	for m, bm := range members {
		r.res[m] = NewResult(bm.E.c.Prog, db.N)
		shared[m] = bm.E.ShareTo(opts.Run)
	}
	newCaches := func() []*BatchCache {
		cs := make([]*BatchCache, nm)
		for m := range cs {
			cs[m] = shared[m].NewBatchCache()
		}
		return cs
	}
	ds := &DiskStats{StateBytes: db.N * int64(r.stride)}

	if opts.AuxIn != "" {
		auxIn, err := storage.OpenMaskFile(opts.AuxIn, db.N, opts.AuxInStride)
		if err != nil {
			return nil, nil, err
		}
		defer auxIn.Close()
		r.auxIn, r.inW = auxIn, int(storage.MaskStride(opts.AuxInStride))
	}
	stateF, err := createStateFile(db)
	if err != nil {
		return nil, nil, err
	}
	r.stateF = stateF
	statePath := stateF.Name()
	succeeded := false
	defer func() {
		stateF.Close()
		if !opts.KeepStateFile || !succeeded {
			os.Remove(statePath)
		}
	}()
	if opts.AuxOut != "" {
		r.auxOut, err = os.Create(opts.AuxOut)
		if err != nil {
			return nil, nil, err
		}
		defer func() {
			r.auxOut.Close()
			if !succeeded {
				os.Remove(opts.AuxOut)
			}
		}()
		r.outW = int(storage.MaskStride(opts.AuxOutStride))
		// Nodes of pruned extents keep all-zero masks: none is selected,
		// and prunable rounds have no aux input to propagate.
		if err := r.auxOut.Truncate(db.N * int64(r.outW)); err != nil {
			return nil, nil, err
		}
	}

	leader := r.newScanner(ctx, newCaches())
	defer leader.release()
	scanners := make([]*scanner, workers)
	for w := range scanners {
		scanners[w] = r.newScanner(ctx, newCaches())
		scanners[w].chunk = true
		defer scanners[w].release()
	}
	skipped := func(exts []storage.Extent) int64 {
		var n int64
		for _, x := range exts {
			n += x.Size * storage.NodeSize
		}
		return n
	}
	var statsMu sync.Mutex
	var workerStats storage.ScanStats // guarded by: statsMu
	mergeWorker := func(st storage.ScanStats, skippedBytes int64) {
		statsMu.Lock()
		workerStats.Merge(storage.ScanStats{Bytes: st.Bytes, SkippedBytes: skippedBytes, MaxStack: st.MaxStack, PhysicalBytes: st.PhysicalBytes})
		statsMu.Unlock()
	}
	subsOf := func(n int) [][]StateID {
		subs := make([][]StateID, n)
		if plan != nil {
			for i := range subs {
				subs[i] = plan.subs
			}
		}
		return subs
	}

	// Phase 1: workers fold their chunks bottom-up, each writing its
	// slice of the state file; then the leader folds the glue, each chunk
	// standing in as one already-folded subtree.
	start := time.Now()
	rootVecs := make([][]StateID, len(tasks))
	err = RunPool(ctx, workers, len(tasks), func(w, i int) error {
		s, x := scanners[w], tasks[i]
		if x.Root < 0 || x.Size <= 0 || x.End() > db.N {
			return fmt.Errorf("%w: [%d,%d) out of range", storage.ErrBadExtent, x.Root, x.End())
		}
		if err := s.up(x.Root, x.End(), inner[i], subsOf(len(inner[i]))); err != nil {
			return err
		}
		if len(s.stack) != nm {
			return fmt.Errorf("%w: [%d,%d) folds to %d roots", storage.ErrBadExtent, x.Root, x.End(), len(s.stack)/nm)
		}
		rootVecs[i] = append([]StateID(nil), s.stack...)
		mergeWorker(s.st, skipped(inner[i]))
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	subs := subsOf(len(leaderSkip))
	var leaderSkipped int64
	for i, ti := range taskOf {
		if ti >= 0 {
			subs[i] = rootVecs[ti]
		} else {
			leaderSkipped += leaderSkip[i].Size * storage.NodeSize
		}
	}
	if err := leader.up(0, db.N, leaderSkip, subs); err != nil {
		return nil, nil, err
	}
	if len(leader.stack) != nm {
		return nil, nil, fmt.Errorf("storage: malformed .arb: %d roots", len(leader.stack)/nm)
	}
	rootVec := append([]StateID(nil), leader.stack...)
	ds.Phase1 = leader.st
	ds.Phase1.SkippedBytes += leaderSkipped
	ds.Phase1.Merge(workerStats)
	agg.Phase1Time = time.Since(start)

	// Phase 2, leader first: forward over the glue, assigning each chunk
	// root its top-down entry vector.
	start = time.Now()
	workerStats = storage.ScanStats{}
	tdRoots := make([][]StateID, len(tasks))
	err = leader.down(0, db.N, leaderSkip, rootVec, nil, func(i int, parent []StateID, k int) error {
		ti := taskOf[i]
		if ti < 0 {
			return nil // a pruned hole: nothing below is selected
		}
		entry := make([]StateID, nm)
		for m, c := range leader.cs {
			bu := rootVecs[ti][m]
			if parent == nil {
				entry[m] = c.RootTrueSet(bu)
			} else {
				entry[m] = c.TDStep(parent[m], bu, k)
			}
		}
		tdRoots[ti] = entry
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	if r.em != nil {
		if err := r.em.Finish(); err != nil {
			return nil, nil, err
		}
	}

	// Phase 2, workers: descend into the chunks from their entry vectors,
	// accumulating marks in private per-chunk bitsets per member.
	err = RunPool(ctx, workers, len(tasks), func(w, i int) error {
		s, x := scanners[w], tasks[i]
		s.w0 = x.Root / 64
		words := (x.End()-1)/64 - s.w0 + 1
		s.local = make([][][]uint64, nm)
		for m := range s.local {
			s.local[m] = make([][]uint64, len(r.res[m].queries))
			for qi := range s.local[m] {
				s.local[m][qi] = make([]uint64, words)
			}
		}
		if err := s.down(x.Root, x.End(), inner[i], rootVecs[i], tdRoots[i], nil); err != nil {
			return err
		}
		for m := range s.local {
			for qi := range s.local[m] {
				r.res[m].MergeWords(qi, s.w0, s.local[m][qi])
			}
		}
		mergeWorker(s.st, skipped(inner[i]))
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	if r.auxOut != nil {
		if err := r.auxOut.Close(); err != nil {
			return nil, nil, err
		}
	}
	ds.Phase2 = leader.st
	ds.Phase2.SkippedBytes += leaderSkipped
	ds.Phase2.Merge(workerStats)
	agg.Phase2Time = time.Since(start)

	AccountRun(members, opts.Run, db.N, plan, agg)
	if opts.KeepStateFile {
		for _, res := range r.res {
			res.StateFile = statePath
		}
	}
	succeeded = true
	return r.res, ds, nil
}
