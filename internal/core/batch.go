package core

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"arb/internal/edb"
	"arb/internal/storage"
	"arb/internal/tree"
)

// The evaluation kernel runs N compiled programs over one document during
// a single pair of linear passes (Algorithm 4.6): at every node each
// member engine takes its own transition through a dense per-run cache
// (BatchCache), the phase-1 states of all members stream to one widened
// state file (the state width per member per node), and auxiliary
// predicate masks travel in one widened sidecar with a slot per member.
// A single query is a batch of one — there is no other driver. The scans
// are query-independent I/O, so a server fielding many concurrent queries
// amortises them across the whole workload. Results are bit-identical to
// running each member alone: the decomposition only shares the
// iteration, never the automata.

// BatchMember is one query's engine inside a batch run, plus the wiring
// of its auxiliary predicate masks (the multi-pass XPath mechanism).
type BatchMember struct {
	E *Engine

	// Aux supplies the member's auxiliary mask for in-memory runs; nil
	// means no auxiliary predicates.
	Aux func(v tree.NodeID) uint16

	// AuxInSlot is the member's uint16 slot in the AuxIn sidecar of disk
	// runs; negative means no aux input.
	AuxInSlot int
	// AuxOutSlot, when non-negative, makes phase 2 write the member's
	// updated mask — the input mask ORed with bit AuxOutBit for every
	// node selected by query predicate AuxOutQuery — to that slot of the
	// AuxOut sidecar.
	AuxOutSlot  int
	AuxOutBit   uint8
	AuxOutQuery int
}

// Solo returns the members of a batch of one: engine e with no aux
// wiring — how a single query runs through the kernel.
func Solo(e *Engine) []BatchMember {
	return []BatchMember{{E: e, AuxInSlot: -1, AuxOutSlot: -1}}
}

// MarkOpts asks phase 2 to stream the document back out as XML with the
// nodes selected by query predicate Query of the first member marked up —
// the system's default output mode (Section 6.3), produced during the
// second pass itself. Marking visits every node in document order, so
// marked runs never prune and always run sequentially.
type MarkOpts struct {
	To    io.Writer // nil: no marked output
	Query int
}

// emitter returns the XML emitter for a marked run, or nil.
func (mk MarkOpts) emitter(names *tree.Names) *storage.XMLEmitter {
	if mk.To == nil {
		return nil
	}
	return storage.NewXMLEmitter(mk.To, names)
}

// DiskBatchOpts configures a secondary-storage batch run. The sidecar
// paths name widened aux-mask files (storage.MaskStride bytes per node);
// empty paths mean no aux input/output.
type DiskBatchOpts struct {
	AuxIn        string
	AuxInStride  int
	AuxOut       string
	AuxOutStride int

	// KeepStateFile retains the phase-1 state file after a successful
	// run and reports its path as every member's Result.StateFile; a
	// failed run always removes it. The kept file holds, per node in
	// reverse preorder (the paper's footnote 12), one 4-byte big-endian
	// bottom-up state id per member in member order — so a batch of one
	// keeps exactly 4 bytes per node, whatever width an unkept run would
	// have used. Every run names its file uniquely next to the database,
	// so concurrent kept runs never collide; the caller owns removal.
	// Kept runs never prune: the file covers every node.
	KeepStateFile bool

	// Mark streams marked XML during phase 2 (see MarkOpts).
	Mark MarkOpts

	// NoPrune disables selectivity-aware scan pruning for this round. A
	// batch round prunes an extent only when every member's analysis
	// proves it irrelevant (the scans are shared); rounds with aux input
	// never prune.
	NoPrune bool

	// Run, when non-nil, receives the round's exact statistics across
	// all members (node visits, prune savings, phase times, and the
	// transitions its own cache misses computed) — deterministic per-run
	// attribution even when executions overlap on shared engines.
	Run *RunStats
}

// prunable reports whether the options admit selectivity-aware pruning.
func (o DiskBatchOpts) prunable() bool {
	return !o.NoPrune && o.AuxIn == "" && !o.KeepStateFile && o.Mark.To == nil
}

// DiskStats reports the per-scan cost profile of a disk run, alongside the
// engine's cumulative Stats. StateBytes is the temporary disk space the
// run's phase-1 state file needed (the batch's state width per node).
type DiskStats struct {
	Phase1     storage.ScanStats
	Phase2     storage.ScanStats
	StateBytes int64
}

// Merge folds another run's disk profile into this one (e.g. the passes
// of one multi-pass execution): scan costs merge per phase, temporary
// state bytes add up.
func (d *DiskStats) Merge(o DiskStats) {
	d.Phase1.Merge(o.Phase1)
	d.Phase2.Merge(o.Phase2)
	d.StateBytes += o.StateBytes
}

// AccountRun credits a completed run's node visits, prune savings and
// phase wall times to every member engine's cumulative Stats and to the
// run's sink. Drivers — here and in internal/parallel — call it only on
// success, so a restarted attempt (narrow-width overflow, stale index)
// never double-counts.
func AccountRun(members []BatchMember, rs *RunStats, n int64, plan *PrunePlan, agg Stats) {
	var pruned int64
	if plan != nil {
		pruned = plan.Nodes
	}
	for _, bm := range members {
		bm.E.addRun(n, pruned, agg.Phase1Time, agg.Phase2Time)
		rs.AddNodes(n)
		rs.AddPrunedNodes(pruned)
	}
	rs.AddPhaseTimes(agg.Phase1Time, agg.Phase2Time)
}

// BatchCache is a dense per-member (and, in parallel runs, per-worker)
// transition memo for the kernel's inner loops. A batch pays N engine
// steps per node, so the per-step constant matters more here than
// anywhere else in the system: node signatures resolve straight from the
// 2-byte record bits to the engine's alphabet symbol (an array lookup),
// and the two transition functions from flat tables indexed by small
// dense state ids — no hashing on the warm path. Tables start at the
// engine's current state and symbol counts, so a warm engine's tables
// are sized exactly and never regrow; lazy construction grows them
// geometrically. Misses fall through to the shared engine, so the cache
// is semantics-free — it can never change which state a step yields.
type BatchCache struct {
	src *SharedEngine

	// sigs[extra][recIndex(rec)] holds the engine's signature id + 1 for
	// a non-root node with record bits rec and aux mask extra; 0 means
	// not yet interned. Each row is sized from the engine's name table
	// (every label and child-flag combination), and rows exist only for
	// the aux masks a run meets — one for passes without aux input.
	sigs    [][]int32
	sigsLen int

	// δA: bu[((l+1)*dimS + (r+1))*dimSig + sig] = state id + 1. Keys the
	// dense table will not grow to hold (maxDenseEntries) live in buMap.
	dimS, dimSig int32
	bu           []StateID
	buMap        map[buMapKey]StateID

	// δB: td[(parent*dimB + child)*2 + (k-1)] = state id + 1.
	dimP, dimB int32
	td         []StateID
	tdMap      map[tdMapKey]StateID

	// Query-predicate masks per top-down state.
	masks     []uint64
	maskKnown []bool

	// Engine sizes at creation (shared.sizes): the dense tables' initial
	// dimensions.
	hintBU, hintSig, hintTD int32
}

type buMapKey struct {
	l, r StateID
	sig  int32
}

type tdMapKey struct {
	p, b StateID
	k    uint8
}

// maxDenseEntries bounds each dense transition table (4 MB of StateIDs):
// automata in practice stay far below it, and pathological state or
// signature counts degrade to hash lookups instead of huge allocations.
const maxDenseEntries = 1 << 20

// NewBatchCache returns a private dense cache in front of the shared
// engine, for one member of one run (or one worker of a parallel run).
func (s *SharedEngine) NewBatchCache() *BatchCache {
	c := &BatchCache{src: s, sigsLen: (int(tree.FirstNamedLabel) + s.e.names.Len()) << 2}
	c.hintBU, c.hintSig, c.hintTD = s.sizes()
	return c
}

// recIndex maps a record's bits (storage.Record.Encode: two child flags
// above a 14-bit label) to label<<2 | flags, so a table over the labels
// the name table knows covers every record.
func recIndex(rec uint16) int { return int(rec&0x3FFF)<<2 | int(rec>>14) }

// SigID returns the engine's signature id for the node given by its
// record bits (label and child flags, storage.Record.Encode form),
// root-ness and aux mask, for BUStep.
func (c *BatchCache) SigID(rec uint16, root bool, extra uint16) int32 {
	if root {
		// Once per run: not worth a table slot.
		return c.src.SigID(recSig(rec, true, extra))
	}
	i := recIndex(rec)
	if int(extra) < len(c.sigs) {
		if row := c.sigs[extra]; i < len(row) {
			if s := row[i]; s != 0 {
				return s - 1
			}
		}
	}
	for int(extra) >= len(c.sigs) {
		c.sigs = append(c.sigs, nil)
	}
	row := c.sigs[extra]
	if i >= len(row) {
		// A label beyond the name table's size at creation only comes
		// from a grown table; widen the row to hold it.
		row = append(row, make([]int32, max(c.sigsLen, i+1)-len(row))...)
		c.sigs[extra] = row
	}
	s := c.src.SigID(recSig(rec, false, extra))
	row[i] = s + 1
	return s
}

func recSig(rec uint16, root bool, extra uint16) edb.NodeSig {
	r := storage.DecodeRecord(rec)
	return edb.NodeSig{
		Label:     tree.Label(r.Label),
		HasFirst:  r.HasFirst,
		HasSecond: r.HasSecond,
		IsRoot:    root,
		Extra:     extra,
	}
}

// BUStep is the cached δA on an engine signature id (SigID).
func (c *BatchCache) BUStep(left, right StateID, sig int32) StateID {
	l1, r1 := left+1, right+1
	if l1 < c.dimS && r1 < c.dimS && sig < c.dimSig {
		if id := c.bu[(l1*c.dimS+r1)*c.dimSig+sig]; id != 0 {
			return id - 1
		}
	} else if id, ok := c.buMap[buMapKey{left, right, sig}]; ok {
		return id
	}
	id := c.src.ReachableStates(left, right, sig)
	c.storeBU(left, right, sig, id)
	return id
}

func (c *BatchCache) storeBU(left, right StateID, sig int32, id StateID) {
	l1, r1 := left+1, right+1
	if l1 >= c.dimS || r1 >= c.dimS || sig >= c.dimSig {
		if !c.growBU(max(l1, r1), sig) {
			if c.buMap == nil {
				c.buMap = map[buMapKey]StateID{}
			}
			c.buMap[buMapKey{left, right, sig}] = id
			return
		}
	}
	c.bu[(l1*c.dimS+r1)*c.dimSig+sig] = id + 1
}

// growDim returns the new size of a table dimension that must hold index
// need: at least hint, doubling past it.
func growDim(cur, need, hint int32) int32 {
	n := max(cur, hint, 1)
	for n <= need {
		n *= 2
	}
	return n
}

// growBU widens the dense δA table to cover state index needS (state id
// + 1) and signature needSig, reporting false when that would exceed the
// dense budget. It sizes for the engine's whole automaton when that fits
// the budget, else for what the run has met so far.
func (c *BatchCache) growBU(needS StateID, needSig int32) bool {
	newS := growDim(c.dimS, needS, c.hintBU+1)
	newSig := growDim(c.dimSig, needSig, c.hintSig)
	if int64(newS)*int64(newS)*int64(newSig) > maxDenseEntries {
		newS, newSig = growDim(c.dimS, needS, 0), growDim(c.dimSig, needSig, 0)
		if int64(newS)*int64(newS)*int64(newSig) > maxDenseEntries {
			return false
		}
	}
	nb := make([]StateID, int(newS)*int(newS)*int(newSig))
	for l := int32(0); l < c.dimS; l++ {
		for r := int32(0); r < c.dimS; r++ {
			copy(nb[(l*newS+r)*newSig:(l*newS+r)*newSig+c.dimSig],
				c.bu[(l*c.dimS+r)*c.dimSig:(l*c.dimS+r+1)*c.dimSig])
		}
	}
	c.bu, c.dimS, c.dimSig = nb, newS, newSig
	return true
}

// TDStep is the cached δB_k.
func (c *BatchCache) TDStep(parent, bu StateID, k int) StateID {
	if parent < c.dimP && bu < c.dimB {
		if id := c.td[(parent*c.dimB+bu)*2+StateID(k-1)]; id != 0 {
			return id - 1
		}
	} else if id, ok := c.tdMap[tdMapKey{parent, bu, uint8(k)}]; ok {
		return id
	}
	id := c.src.TruePreds(parent, bu, k)
	c.storeTD(parent, bu, k, id)
	return id
}

func (c *BatchCache) storeTD(parent, bu StateID, k int, id StateID) {
	if parent >= c.dimP || bu >= c.dimB {
		newP := growDim(c.dimP, parent, c.hintTD)
		newB := growDim(c.dimB, bu, c.hintBU)
		if int64(newP)*int64(newB)*2 > maxDenseEntries {
			newP, newB = growDim(c.dimP, parent, 0), growDim(c.dimB, bu, 0)
		}
		if int64(newP)*int64(newB)*2 > maxDenseEntries {
			if c.tdMap == nil {
				c.tdMap = map[tdMapKey]StateID{}
			}
			c.tdMap[tdMapKey{parent, bu, uint8(k)}] = id
			return
		}
		nt := make([]StateID, int(newP)*int(newB)*2)
		for p := int32(0); p < c.dimP; p++ {
			copy(nt[p*newB*2:p*newB*2+c.dimB*2], c.td[p*c.dimB*2:(p+1)*c.dimB*2])
		}
		c.td, c.dimP, c.dimB = nt, newP, newB
	}
	c.td[(parent*c.dimB+bu)*2+StateID(k-1)] = id + 1
}

// RootTrueSet is step 2 of Algorithm 4.6 (uncached: once per run).
func (c *BatchCache) RootTrueSet(bu StateID) StateID { return c.src.RootTrueSet(bu) }

// QueryMask returns the query-predicate bitmask of a top-down state.
func (c *BatchCache) QueryMask(td StateID) uint64 {
	if int(td) < len(c.maskKnown) && c.maskKnown[td] {
		return c.masks[td]
	}
	return c.maskMiss(td)
}

// maskMiss is QueryMask's slow path (kept apart so QueryMask inlines).
func (c *BatchCache) maskMiss(td StateID) uint64 {
	m := c.src.QueryMask(td)
	if n := int(max(td+1, c.hintTD)); n > len(c.masks) {
		c.masks = append(c.masks, make([]uint64, n-len(c.masks))...)
		c.maskKnown = append(c.maskKnown, make([]bool, n-len(c.maskKnown))...)
	}
	c.masks[td], c.maskKnown[td] = m, true
	return m
}

// TreeBatchOpts configures an in-memory batch pass.
type TreeBatchOpts struct {
	// Index optionally supplies a subtree index with label signatures
	// over the tree (storage.BuildTreeIndex), enabling selectivity-aware
	// pruning: an extent is skipped only when every member's analysis
	// proves it irrelevant. Members with Aux set disable pruning for the
	// whole pass.
	Index *storage.SubtreeIndex
	// NoPrune disables pruning even when Index is available.
	NoPrune bool
	// KeepStates records every node's bottom-up and top-down state in the
	// Result (BUStateOf/TDStateOf) of a batch of one. Kept runs never
	// prune: the recorded states must be complete.
	KeepStates bool
	// Mark streams marked XML during phase 2 (see MarkOpts).
	Mark MarkOpts
	// Run, when non-nil, receives the pass's exact statistics across all
	// members — deterministic per-run attribution even when batch
	// executions overlap on shared engines.
	Run *RunStats
}

// Check rejects option combinations a pass over members cannot honour.
func (o TreeBatchOpts) Check(members []BatchMember) error {
	if o.KeepStates && len(members) != 1 {
		return errors.New("core: KeepStates needs a batch of one")
	}
	return nil
}

// Prunable reports whether a pass over members with these options admits
// selectivity-aware pruning.
func (o TreeBatchOpts) Prunable(members []BatchMember) bool {
	if o.NoPrune || o.KeepStates || o.Mark.To != nil {
		return false
	}
	for _, bm := range members {
		if bm.Aux != nil {
			return false
		}
	}
	return true
}

// RunBatchTree evaluates every member's program over an in-memory tree in
// one shared pair of passes (Algorithm 4.6): phase 1 runs automaton A
// bottom-up in reverse preorder — children of a node always follow it in
// preorder, so one descending index loop is a bottom-up traversal —
// stepping all member automata per node; phase 2 runs automaton B
// top-down in one ascending loop likewise. Once the lazy transition
// tables are warm, each step is a dense-table lookup (BatchCache). The
// returned results (one per member, in member order) are identical to
// running each member's engine alone. The shared phase wall times and
// node visits land in every member engine's Stats and in topts.Run, like
// each engine's own lazy-transition work. Cancelling ctx aborts the pass
// in progress with ctx.Err().
func RunBatchTree(ctx context.Context, t *tree.Tree, members []BatchMember, topts TreeBatchOpts) ([]*Result, error) {
	var agg Stats
	n := t.Len()
	if n == 0 {
		return nil, errors.New("core: empty tree")
	}
	nm := len(members)
	if nm == 0 {
		return nil, errors.New("core: empty batch")
	}
	if err := topts.Check(members); err != nil {
		return nil, err
	}
	cancel := storage.NewCanceller(ctx)
	res := make([]*Result, nm)
	caches := make([]*BatchCache, nm)
	engines := make([]*Engine, nm)
	for m, bm := range members {
		res[m] = NewResult(bm.E.c.Prog, int64(n))
		caches[m] = bm.E.ShareTo(topts.Run).NewBatchCache()
		engines[m] = bm.E
	}
	var prune *PrunePlan
	if topts.Prunable(members) {
		prune = PlanPrune(engines, topts.Index, int64(n))
	}
	var exts []storage.Extent
	if prune != nil {
		exts = prune.Extents
	}

	// Phase 1: one bottom-up pass, all members per node.
	start := time.Now()
	bu := make([]StateID, n*nm)
	pe := len(exts) - 1
	for v := n - 1; v >= 0; v-- {
		if err := cancel.Step(); err != nil {
			return nil, err
		}
		if pe >= 0 && int64(v) == exts[pe].End()-1 {
			x := exts[pe]
			pe--
			for m := range members {
				bu[int(x.Root)*nm+m] = prune.Sub(m)
			}
			v = int(x.Root) // the loop decrement steps past the extent
			continue
		}
		first, second := t.First(tree.NodeID(v)), t.Second(tree.NodeID(v))
		rec := storage.Record{
			Label:     uint16(t.Label(tree.NodeID(v))),
			HasFirst:  first != tree.None,
			HasSecond: second != tree.None,
		}.Encode()
		root := v == 0
		for m, bm := range members {
			left, right := NoState, NoState
			if first != tree.None {
				left = bu[int(first)*nm+m]
			}
			if second != tree.None {
				right = bu[int(second)*nm+m]
			}
			var extra uint16
			if bm.Aux != nil {
				extra = bm.Aux(tree.NodeID(v))
			}
			c := caches[m]
			bu[v*nm+m] = c.BUStep(left, right, c.SigID(rec, root, extra))
		}
	}
	agg.Phase1Time = time.Since(start)

	// Phase 2: one top-down pass, streaming marked XML alongside.
	start = time.Now()
	em := topts.Mark.emitter(t.Names())
	markBit := uint64(1) << uint(topts.Mark.Query)
	td := make([]StateID, n*nm)
	for m := range members {
		td[m] = caches[m].RootTrueSet(bu[m])
	}
	pi := 0
	for v := 0; v < n; v++ {
		if err := cancel.Step(); err != nil {
			return nil, err
		}
		if pi < len(exts) && int64(v) == exts[pi].Root {
			// Provably selection-free: nothing to mark, nothing below
			// needs a top-down state.
			v = int(exts[pi].End()) - 1 // the loop increment steps past
			pi++
			continue
		}
		first, second := t.First(tree.NodeID(v)), t.Second(tree.NodeID(v))
		var selected bool
		for m := range members {
			c := caches[m]
			tdv := td[v*nm+m]
			mask := c.QueryMask(tdv)
			if mask != 0 {
				res[m].MarkMask(mask, int64(v))
			}
			if m == 0 {
				selected = mask&markBit != 0
			}
			if first != tree.None {
				td[int(first)*nm+m] = c.TDStep(tdv, bu[int(first)*nm+m], 1)
			}
			if second != tree.None {
				td[int(second)*nm+m] = c.TDStep(tdv, bu[int(second)*nm+m], 2)
			}
		}
		if em != nil {
			rec := storage.Record{
				Label:     uint16(t.Label(tree.NodeID(v))),
				HasFirst:  first != tree.None,
				HasSecond: second != tree.None,
			}
			if err := em.Node(int64(v), rec, selected); err != nil {
				return nil, err
			}
		}
	}
	if em != nil {
		if err := em.Finish(); err != nil {
			return nil, err
		}
	}
	agg.Phase2Time = time.Since(start)
	if topts.KeepStates {
		res[0].BUStateOf, res[0].TDStateOf = bu, td
	}
	AccountRun(members, topts.Run, int64(n), prune, agg)
	return res, nil
}

// Widened state file: per node, one stateWidth-byte big-endian id per
// member, in member order. The state file is the dominant temporary I/O
// of a big batch, so runs start with the narrowest width the members'
// automata currently fit (typical programs intern a few dozen bottom-up
// states — one byte) and restart wider in the rare event that lazy
// construction outgrows it mid-run.
const (
	stateByte   = 1
	stateNarrow = 2
	stateWide   = 4
)

var errStateWidth = errors.New("core: bottom-up state id exceeds the narrow on-disk width")

func putState(b []byte, width int, id StateID) error {
	switch width {
	case stateByte:
		if uint32(id) >= 1<<8 {
			return errStateWidth
		}
		b[0] = byte(id)
	case stateNarrow:
		if uint32(id) >= 1<<16 {
			return errStateWidth
		}
		binary.BigEndian.PutUint16(b, uint16(id))
	default:
		binary.BigEndian.PutUint32(b, uint32(id))
	}
	return nil
}

func getState(b []byte, width int) StateID {
	switch width {
	case stateByte:
		return StateID(b[0])
	case stateNarrow:
		return StateID(binary.BigEndian.Uint16(b))
	default:
		return StateID(binary.BigEndian.Uint32(b))
	}
}

// batchStateWidth picks the initial on-disk state width for the members'
// engines, leaving headroom under each width's limit for states a run
// interns as it goes; a mid-run overflow restarts the run at stateWide.
// Kept state files always use stateWide (DiskBatchOpts.KeepStateFile).
func batchStateWidth(members []BatchMember, opts DiskBatchOpts) int {
	if opts.KeepStateFile {
		return stateWide
	}
	width := stateByte
	for _, bm := range members {
		switch n := bm.E.BUStateCount(); {
		case n >= 1<<16-256:
			return stateWide
		case n >= 1<<8-64:
			width = stateNarrow
		}
	}
	return width
}

// RunDiskBatch evaluates every member's program over a .arb database in
// secondary storage using Algorithm 4.6 with exactly two linear scans of
// the data for the whole batch (Proposition 5.1): phase 1 is one backward
// scan streaming every member's bottom-up state per node to one widened
// temporary state file; phase 2 is one forward scan reading that file
// backwards — yielding the phase-1 states in preorder (the paper's
// footnote 12) — and computing each member's true predicates. Main
// memory holds only the automata (computed lazily), their dense caches
// and a stack bounded by the depth of the XML document. Auxiliary masks
// ride in widened sidecars with one slot per member (DiskBatchOpts), so
// multi-pass members chain their passes through shared scans too.
// Results are identical to running each member alone. Cancelling ctx
// aborts the scan in progress; a failed or cancelled run removes the
// state file and any partially written AuxOut sidecar.
func RunDiskBatch(ctx context.Context, db *storage.DB, members []BatchMember, opts DiskBatchOpts) ([]*Result, *DiskStats, error) {
	if err := checkDiskRun(db, members, opts); err != nil {
		return nil, nil, err
	}
	// Selectivity-aware pruning: only extents every member proves
	// irrelevant can be skipped, since the batch shares one scan pair.
	// Sound only without aux input (aux bits vary per node), without
	// marked output (every node must be emitted), and without a kept
	// state file (a pruned file has holes where extents were skipped).
	var plan *PrunePlan
	if opts.prunable() && db.N >= PruneMinNodes {
		if ix, ierr := db.Index(ctx, 0); ierr == nil {
			plan = PlanPrune(engines(members), ix, db.N)
		}
	}
	return runKernel(ctx, db, 1, members, opts, nil, plan)
}

// runKernel runs the disk kernel (runDiskOnce) at the members' narrowest
// state width, restarting at stateWide when lazy construction outgrows
// it mid-run.
func runKernel(ctx context.Context, db *storage.DB, workers int, members []BatchMember, opts DiskBatchOpts, tasks []storage.Extent, plan *PrunePlan) ([]*Result, *DiskStats, error) {
	res, ds, err := runDiskOnce(ctx, db, workers, members, opts, tasks, batchStateWidth(members, opts), plan)
	if errors.Is(err, errStateWidth) {
		res, ds, err = runDiskOnce(ctx, db, workers, members, opts, tasks, stateWide, plan)
	}
	return res, ds, err
}

// checkDiskRun rejects runs the kernel cannot evaluate, among them aux
// slots outside their sidecar's stride.
func checkDiskRun(db *storage.DB, members []BatchMember, opts DiskBatchOpts) error {
	if len(members) == 0 {
		return errors.New("core: empty batch")
	}
	if db.N == 0 {
		return errors.New("core: empty database")
	}
	for _, bm := range members {
		if bm.E.names != db.Names {
			return errors.New("core: engine name table does not match database")
		}
		if (opts.AuxIn != "" && bm.AuxInSlot >= opts.AuxInStride) || (opts.AuxOut != "" && bm.AuxOutSlot >= opts.AuxOutStride) {
			return errors.New("core: aux slot outside the sidecar stride")
		}
	}
	if (opts.AuxIn != "" && opts.AuxInStride < 1) || (opts.AuxOut != "" && opts.AuxOutStride < 1) {
		return errors.New("core: aux sidecar stride must be positive")
	}
	return nil
}

// engines returns the members' engines.
func engines(members []BatchMember) []*Engine {
	es := make([]*Engine, len(members))
	for m, bm := range members {
		es[m] = bm.E
	}
	return es
}

// createStateFile creates a run's phase-1 state file: a unique temporary
// file next to the database, so concurrent runs sharing a database
// directory — kept or not — never clobber each other's state.
func createStateFile(db *storage.DB) (*os.File, error) {
	f, err := os.CreateTemp(filepath.Dir(db.Base), filepath.Base(db.Base)+"-*.sta")
	return f, err
}

// RunDiskBatchParallel is RunDiskBatch with a pool of workers streaming
// disjoint chunk byte ranges, preserving its structure and invariants:
// phase 1 is one backward scan's worth of I/O streaming every node's
// bottom-up states to the state file, phase 2 one forward scan's worth
// computing the true predicates; memory per worker stays bounded by the
// document depth (plus the shared automata); and the results are
// identical to RunDiskBatch's.
//
// Parallelism comes from the preorder layout (Sections 6.2/7 of the
// paper): every subtree is one contiguous byte range, so the database's
// subtree index cuts the file into a frontier of chunks that workers
// stream independently — each with its own pooled blocks and private
// dense caches backed by the members' shared automata, writing its slice
// of the state file at its own offset — while the leader scans the glue
// between chunks (runDiskOnce). On balanced trees (ACGT-infix) the phases
// divide evenly; on degenerate right-deep trees (ACGT-flat) the frontier
// collapses and evaluation degrades toward sequential.
//
// workers <= 0 uses GOMAXPROCS. Runs that stream marked XML are
// inherently order-dependent and run sequentially, as do single-worker
// requests and databases too small to be worth coordinating.
func RunDiskBatchParallel(ctx context.Context, db *storage.DB, workers int, members []BatchMember, opts DiskBatchOpts) ([]*Result, *DiskStats, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 || db.N < parMinNodes || opts.Mark.To != nil {
		return RunDiskBatch(ctx, db, members, opts)
	}
	if err := checkDiskRun(db, members, opts); err != nil {
		return nil, nil, err
	}
	idx, err := db.Index(ctx, 0)
	if err != nil {
		return nil, nil, err
	}
	target := db.N / (int64(workers) * parTasksPerWorker)
	run := func(idx *storage.SubtreeIndex) ([]*Result, *DiskStats, error, bool) {
		tasks := idx.Cut(target, parMinTask)
		if len(tasks) == 0 {
			res, ds, err := RunDiskBatch(ctx, db, members, opts)
			return res, ds, err, false
		}
		var plan *PrunePlan
		if opts.prunable() {
			plan = PlanPrune(engines(members), idx, db.N)
		}
		res, ds, err := runKernel(ctx, db, workers, members, opts, tasks, plan)
		return res, ds, err, true
	}
	res, ds, err, chunked := run(idx)
	if chunked && err != nil && errors.Is(err, storage.ErrBadExtent) {
		// A stale or foreign .idx sidecar (e.g. the .arb was replaced
		// out-of-band by one of equal size) cut extents that don't match
		// the data. Rebuild the index from the file and retry once; a
		// genuinely malformed database fails the rebuild scan instead.
		idx, rerr := db.RebuildIndex(ctx, 0)
		if rerr != nil {
			return nil, nil, rerr
		}
		res, ds, err, _ = run(idx)
	}
	return res, ds, err
}
