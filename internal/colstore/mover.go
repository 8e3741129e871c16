package colstore

// Columnstore maintenance, written once: the snapshot / encode-off-lock /
// install-under-critical-section halves of incremental delta compaction,
// delete-buffer folding, and rowgroup rebuild. The engine's background
// mover drives these step by step; Index.TupleMove runs the same steps
// back to back under its caller's lock. Locking lives entirely at the
// engine's statement boundary, so the contract here is positional:
//
//   - Snapshot*/Plan* run while at least a shared (read) lock is held;
//     they read index state and return immutable plans.
//   - EncodeRows runs with NO lock held; it touches only the immutable
//     config and the (internally synchronized) page store.
//   - Install* run under the exclusive lock; each validates its plan's
//     generation stamp and either applies the change wholesale or
//     reports false so the caller can discard and retry.
//
// Generation stamps make the optimism safe: delGen advances whenever a
// delta row is removed (inserts only append at higher seqs, so a
// snapshot can never be invalidated by the write stream it is trying to
// keep up with — no livelock), and bufGen advances on every delete-
// buffer change.

import (
	"sync"
	"time"

	"hybriddb/internal/btree"
	"hybriddb/internal/metrics"
	"hybriddb/internal/value"
	"hybriddb/internal/vclock"
	"hybriddb/internal/vec"
)

var (
	mMoves = metrics.NewCounter("hybriddb_tuplemover_moves_total",
		"delta-to-rowgroup move installs, background or synchronous")
	mFolds = metrics.NewCounter("hybriddb_tuplemover_folds_total",
		"delete-buffer folds installed into delete bitmaps and the delta store, background or synchronous")
	mRebuilds = metrics.NewCounter("hybriddb_tuplemover_rebuilds_total",
		"rowgroups rebuilt to shed delete-bitmap dead rows")
	mMoverAborts = metrics.NewCounter("hybriddb_tuplemover_aborts_total",
		"mover installs abandoned because DML invalidated the snapshot")
	mRowsMoved = metrics.NewCounter("hybriddb_tuplemover_rows_moved_total",
		"delta rows moved into compressed rowgroups, background or synchronous")
)

// DeltaSnapshot captures a prefix of the delta store for off-lock
// encoding. The delta tree never modifies a stored row in place, so the
// rows stay valid whatever DML follows.
type DeltaSnapshot struct {
	Rows []value.Row
	Seqs []int64
	gen  uint64
}

// SnapshotDelta collects up to maxRows delta rows (in seq order) for the
// mover to encode off-lock. maxRows <= 0 means the configured rowgroup
// size. Returns nil when the delta store is empty. Requires at least a
// shared lock.
func (x *Index) SnapshotDelta(maxRows int, tr *vclock.Tracker) *DeltaSnapshot {
	if maxRows <= 0 {
		maxRows = x.cfg.RowGroupSize
	}
	if x.delta.Count() == 0 {
		return nil
	}
	snap := &DeltaSnapshot{gen: x.delGen}
	for it := x.delta.First(tr); it.Valid() && len(snap.Rows) < maxRows; it.Next() {
		snap.Seqs = append(snap.Seqs, it.Key()[0].Int())
		snap.Rows = append(snap.Rows, it.Row())
	}
	return snap
}

// EncodedGroup is a compressed rowgroup built off-lock, not yet visible
// to scans. Its segments live in the page store; DiscardEncoded frees
// them if the install is abandoned.
type EncodedGroup struct {
	g *rowGroup
}

// Rows returns the number of rows in the encoded group.
func (e *EncodedGroup) Rows() int { return e.g.n }

// EncodeRows compresses rows into rowgroup-sized encoded groups. It
// reads only the immutable index config and the page store, so it runs
// without any index lock; the caller installs the result later.
func (x *Index) EncodeRows(rows []value.Row, tr *vclock.Tracker) []*EncodedGroup {
	var out []*EncodedGroup
	for start := 0; start < len(rows); start += x.cfg.RowGroupSize {
		end := start + x.cfg.RowGroupSize
		if end > len(rows) {
			end = len(rows)
		}
		out = append(out, x.encodeGroup(rows[start:end], tr))
	}
	return out
}

// DiscardEncoded frees the segments of groups that will never be
// installed (their snapshot was invalidated).
func (x *Index) DiscardEncoded(groups []*EncodedGroup) {
	for _, eg := range groups {
		x.freeGroup(eg.g)
	}
}

// InstallMove makes the encoded groups visible and removes the moved
// rows from the delta store. Requires the exclusive lock. Returns false
// (and counts an abort) when DML invalidated the snapshot since it was
// taken; the caller must then DiscardEncoded the groups.
func (x *Index) InstallMove(snap *DeltaSnapshot, groups []*EncodedGroup, tr *vclock.Tracker) bool {
	if snap == nil || snap.gen != x.delGen {
		mMoverAborts.Inc()
		return false
	}
	if int64(len(snap.Seqs)) == x.delta.Count() {
		// The snapshot is the whole delta (the generation stamp rules out
		// removals, the count rules out appends): start a fresh tree, so
		// later inserts do not land among emptied leaves.
		x.delta.Free()
		x.delta = btree.New(x.store)
	} else {
		for _, s := range snap.Seqs {
			x.delta.Delete(tr, value.Row{value.NewInt(s)}, nil)
		}
	}
	x.install(groups)
	// nLive is unchanged: the rows moved from delta to compressed.
	x.delGen++
	mDeltaRows.Add(-int64(len(snap.Rows)))
	mRowsMoved.Add(int64(len(snap.Rows)))
	mMoves.Inc()
	mCompactions.Inc()
	return true
}

// deleteSet is the delete buffer read as the multiset a scan anti-semi
// joins against: every reader builds it with pendingDeletes and consumes
// it with cancel, in physical row order (compressed groups, then delta
// in seq order). That shared order is what makes a scan before a fold, a
// scan after it, and the fold itself agree on which physical duplicate a
// buffered delete cancels.
type deleteSet struct {
	counts map[string]int
	enc    []byte
}

// pendingDeletes reads the delete buffer; nil when it is empty.
func (x *Index) pendingDeletes(tr *vclock.Tracker) *deleteSet {
	if x.nBuf == 0 {
		return nil
	}
	d := &deleteSet{counts: make(map[string]int, x.nBuf)}
	for it := x.delBuf.First(tr); it.Valid(); it.Next() {
		d.enc = value.EncodeKey(d.enc[:0], it.Key()...)
		d.counts[string(d.enc)]++
	}
	return d
}

// cancel reports whether a buffered delete is pending for the row with
// this logical key, and consumes it.
func (d *deleteSet) cancel(key value.Row) bool {
	d.enc = value.EncodeKey(d.enc[:0], key...)
	if d.counts[string(d.enc)] == 0 {
		return false
	}
	d.counts[string(d.enc)]--
	return true
}

// FoldPlan matches every buffered logical delete against a physical
// row: compressed rows to mark in delete bitmaps, delta rows to remove.
type FoldPlan struct {
	gen, delGen uint64
	groups      []*rowGroup // groups visible at plan time, for identity checks
	ndel        []int       // their bitmap counts at plan time
	marks       [][]int32   // positions to mark, per group
	deltaSeqs   []int64     // delta rows to remove
	// Consumed is the number of buffered entries that found their row.
	Consumed int
}

// PlanFold scans the compressed rowgroups' key columns, then the delta
// store, and consumes the buffered-delete multiset in that physical row
// order — exactly the order a scan's anti-semi join consumes it, so
// folding never changes which duplicate a buffered delete cancels.
// Requires at least a shared lock (reads segments, bitmaps, the delta
// store and the buffer tree); the scan work is charged to tr. Returns
// nil when the buffer is empty.
func (x *Index) PlanFold(tr *vclock.Tracker) *FoldPlan {
	if x.nBuf == 0 {
		return nil
	}
	del := x.pendingDeletes(tr)
	p := &FoldPlan{gen: x.bufGen, delGen: x.delGen}
	p.groups = append(p.groups, x.groups...)
	p.ndel = make([]int, len(p.groups))
	p.marks = make([][]int32, len(p.groups))
	key := make(value.Row, len(x.cfg.KeyOrdinals))
	segs := make([]*segment, len(key))
	vs := make([]*vec.Vec, len(key))
	defer releaseRows(vs)
	var scanned int64
	for gi, g := range p.groups {
		p.ndel[gi] = g.ndel
		if p.Consumed == x.nBuf {
			continue
		}
		for ki, ko := range x.cfg.KeyOrdinals {
			segs[ki] = x.store.Get(tr, g.segIDs[ko], true).(*segment)
		}
		for from := 0; from < g.n && p.Consumed < x.nBuf; from += vec.BatchSize {
			to := min(from+vec.BatchSize, g.n)
			decodeRows(vs, segs, from, to)
			for i := from; i < to && p.Consumed < x.nBuf; i++ {
				if g.isDeleted(i) {
					continue
				}
				scanned++
				for ki, v := range vs {
					key[ki] = v.Value(i - from)
				}
				if del.cancel(key) {
					p.marks[gi] = append(p.marks[gi], int32(i))
					p.Consumed++
				}
			}
		}
	}
	for it := x.delta.First(tr); it.Valid() && p.Consumed < x.nBuf; it.Next() {
		scanned++
		row := it.Row()
		for ki, ko := range x.cfg.KeyOrdinals {
			key[ki] = row[ko]
		}
		if del.cancel(key) {
			p.deltaSeqs = append(p.deltaSeqs, it.Key()[0].Int())
			p.Consumed++
		}
	}
	if tr != nil {
		tr.ChargeParallelCPU(vclock.CPU(scanned, tr.Model.RowCPU/4), 1.0)
	}
	return p
}

// InstallFold applies a fold plan: marks the matched positions in the
// delete bitmaps, removes the matched delta rows and empties the delete
// buffer. Requires the exclusive lock. Returns false when the buffer,
// the delta store or the rowgroups changed since the plan was taken.
func (x *Index) InstallFold(p *FoldPlan, tr *vclock.Tracker) bool {
	if p == nil || p.gen != x.bufGen || p.delGen != x.delGen || len(p.groups) != len(x.groups) {
		mMoverAborts.Inc()
		return false
	}
	for gi, g := range p.groups {
		if x.groups[gi] != g || g.ndel != p.ndel[gi] {
			mMoverAborts.Inc()
			return false
		}
	}
	for gi, ps := range p.marks {
		g := p.groups[gi]
		for _, i := range ps {
			g.markDeleted(int(i))
		}
	}
	for _, s := range p.deltaSeqs {
		x.delta.Delete(tr, value.Row{value.NewInt(s)}, nil)
	}
	mDeltaRows.Add(-int64(len(p.deltaSeqs)))
	x.delGen++
	x.delBuf.Free()
	x.delBuf = btree.New(x.store)
	// Live count is unchanged: BufferDelete already subtracted the
	// logically deleted rows; the bitmaps and the delta store now carry
	// them instead.
	mBufferedDeletes.Add(-int64(x.nBuf))
	x.nBuf = 0
	x.bufGen++
	mFolds.Inc()
	mCompactions.Inc()
	return true
}

// RebuildPlan holds the surviving rows of one rowgroup, decoded for
// re-encoding without its dead rows.
type RebuildPlan struct {
	gi   int
	old  *rowGroup
	ndel int
	// Rows are the group's live rows in physical order.
	Rows []value.Row
}

// PlanRebuild decodes the live rows of rowgroup gi so the mover can
// re-encode them off-lock into a dense group. Requires at least a
// shared lock. Returns nil when the group has no dead rows.
func (x *Index) PlanRebuild(gi int, tr *vclock.Tracker) *RebuildPlan {
	if gi < 0 || gi >= len(x.groups) {
		return nil
	}
	g := x.groups[gi]
	if g.ndel == 0 {
		return nil
	}
	segs := x.segments(tr, g)
	p := &RebuildPlan{gi: gi, old: g, ndel: g.ndel}
	for from := 0; from < g.n; from += vec.BatchSize {
		p.Rows = appendLiveRows(p.Rows, g, segs, from, min(from+vec.BatchSize, g.n))
	}
	if tr != nil {
		tr.ChargeParallelCPU(vclock.CPU(int64(g.n)*int64(len(segs)), tr.Model.BatchCPU), 1.0)
	}
	return p
}

// segments reads every segment of rowgroup g through tr.
func (x *Index) segments(tr *vclock.Tracker, g *rowGroup) []*segment {
	segs := make([]*segment, len(g.segIDs))
	for c, id := range g.segIDs {
		segs[c] = x.store.Get(tr, id, true).(*segment)
	}
	return segs
}

// appendLiveRows decodes rows [from, to) of rowgroup g from its segments
// and appends the live ones to dst.
func appendLiveRows(dst []value.Row, g *rowGroup, segs []*segment, from, to int) []value.Row {
	vs := make([]*vec.Vec, len(segs))
	defer releaseRows(vs)
	decodeRows(vs, segs, from, to)
	for i := from; i < to; i++ {
		if !g.isDeleted(i) {
			row := make(value.Row, len(vs))
			for c, v := range vs {
				row[c] = v.Value(i - from)
			}
			dst = append(dst, row)
		}
	}
	return dst
}

// planVecs recycles the vectors PlanFold and PlanRebuild decode into:
// the mover plans a fold on most of its steps, and a plan's vectors
// die with it.
var planVecs = sync.Pool{New: func() any { return new(vec.Vec) }}

// decodeRows decodes positions [from, to) of segs into vs, one vector
// per segment, taken from planVecs on first use.
func decodeRows(vs []*vec.Vec, segs []*segment, from, to int) {
	for c, seg := range segs {
		if vs[c] == nil {
			vs[c] = planVecs.Get().(*vec.Vec)
		}
		vs[c].Kind = seg.kind
		vs[c].Reset()
		vs[c].Reserve(to - from)
		seg.decodeRange(vs[c], from, to)
	}
}

// releaseRows returns decodeRows' vectors to planVecs.
func releaseRows(vs []*vec.Vec) {
	for _, v := range vs {
		if v != nil {
			planVecs.Put(v)
		}
	}
}

// InstallRebuild swaps the rebuilt group (at most one: a rebuild never
// grows a group) in place of the old one, freeing its segments and its
// delete bitmap. An empty encoded slice removes the group outright (all
// rows were dead). Requires the exclusive lock. Returns false when the
// group was touched since the plan was taken; the caller must then
// DiscardEncoded.
func (x *Index) InstallRebuild(p *RebuildPlan, groups []*EncodedGroup, tr *vclock.Tracker) bool {
	if p == nil || p.gi >= len(x.groups) || x.groups[p.gi] != p.old || p.old.ndel != p.ndel {
		mMoverAborts.Inc()
		return false
	}
	x.freeGroup(p.old)
	x.nTotal -= int64(p.old.n)
	if len(groups) == 0 {
		x.groups = append(x.groups[:p.gi], x.groups[p.gi+1:]...)
	} else {
		eg := groups[0]
		x.groups[p.gi] = eg.g
		x.nTotal += int64(eg.g.n)
		mGroupsBuilt.Inc()
		for _, extra := range groups[1:] {
			// Cannot happen (live rows <= old group size <= rowgroup
			// size), but never leak segments.
			x.DiscardEncoded([]*EncodedGroup{extra})
		}
	}
	// nLive is unchanged: only dead rows were shed.
	mRebuilds.Inc()
	mCompactions.Inc()
	return true
}

// Debt models what an index's write-side backlog costs every scan, and
// what it would cost the mover to clear it.
type Debt struct {
	DeltaRows       int64
	BufferedDeletes int
	DeadRows        int
	CompressedRows  int64
	// ScanTax is the modeled extra CPU a full scan of all columns pays
	// versus a fully compacted index.
	ScanTax time.Duration
	// Work is the modeled CPU to compact the backlog away.
	Work time.Duration
}

// CompactionDebt evaluates the cost model the mover schedules by. The
// dominant term mirrors the measured kernel cliff: any pending buffered
// delete forces the whole compressed scan off the encoding-aware
// kernels into decode-then-filter plus an anti-semi probe per row,
// while delta rows merely pay row-at-a-time materialization.
func (x *Index) CompactionDebt(m *vclock.Model) Debt {
	ncols := x.cfg.Schema.Len()
	d := Debt{
		DeltaRows:       x.delta.Count(),
		BufferedDeletes: x.nBuf,
		DeadRows:        x.DeletedBitmapRows(),
		CompressedRows:  x.nTotal,
		ScanTax:         x.ScanTax(m, ncols),
	}
	if d.DeltaRows > 0 {
		d.Work += vclock.CPU(d.DeltaRows*int64(ncols), m.RowCPU/4)
	}
	if d.BufferedDeletes > 0 {
		d.Work += vclock.CPU(d.CompressedRows, m.RowCPU/4)
	}
	if d.DeadRows > 0 {
		var denseRows int64
		for _, g := range x.groups {
			if g.ndel > 0 {
				denseRows += int64(g.n)
			}
		}
		d.Work += vclock.CPU(denseRows*int64(ncols), m.RowCPU/4+m.BatchCPU)
	}
	return d
}

// ScanTax models the extra CPU a scan decoding ncols columns pays for
// the index's current delta/buffer/bitmap backlog, in the same vclock
// currency the optimizer costs plans with. ncols <= 0 means all
// columns.
func (x *Index) ScanTax(m *vclock.Model, ncols int) time.Duration {
	if ncols <= 0 {
		ncols = x.cfg.Schema.Len()
	}
	var tax time.Duration
	if dr := x.delta.Count(); dr > 0 {
		// Delta rows scan row-at-a-time instead of through batch decode.
		rowMode := vclock.CPU(dr, m.RowCPU)
		batchMode := vclock.CPU(dr*int64(ncols), m.BatchCPU/2)
		if rowMode > batchMode {
			tax += rowMode - batchMode
		}
	}
	if x.nBuf > 0 && x.nTotal > 0 {
		// A pending delete buffer disables the encoding-aware kernels for
		// the entire scan: every compressed row pays an anti-semi probe
		// plus full decode-then-filter instead of encoded-domain
		// evaluation with late materialization.
		tax += vclock.CPU(x.nTotal, m.HashCPU)
		tax += vclock.CPU(x.nTotal*int64(ncols), m.BatchCPU/2)
	}
	if dead := int64(x.DeletedBitmapRows()); dead > 0 {
		// Dead rows are decoded and then discarded.
		tax += vclock.CPU(dead*int64(ncols), m.BatchCPU/2)
	}
	return tax
}

// GroupDeadFraction returns the dead-row density of rowgroup gi.
func (x *Index) GroupDeadFraction(gi int) float64 {
	if gi < 0 || gi >= len(x.groups) || x.groups[gi].n == 0 {
		return 0
	}
	g := x.groups[gi]
	return float64(g.ndel) / float64(g.n)
}

// RebuildThreshold is the delete-bitmap density at which a rowgroup is
// rebuilt without its dead rows.
const RebuildThreshold = 0.25

// Step names one kind of incremental compaction step, in the order the
// mover prefers them.
type Step int

const (
	StepNone Step = iota
	StepFold
	StepMove
	StepRebuild
)

// NextStep is the compaction policy: what the mover would do next on
// this index. Fold the delete buffer first (any pending buffered delete
// forces the whole scan off the kernels — the measured cliff), then move
// the delta once it holds minMove rows, then rebuild the first rowgroup
// (its number is the second result) at RebuildThreshold. A fold empties
// the buffer, so a move never starts with a delete pending: no move
// compresses two versions of one row, and physical order stays age
// order. Requires at least a shared lock.
func (x *Index) NextStep(minMove int64) (Step, int) {
	if x.nBuf > 0 {
		return StepFold, 0
	}
	if dr := x.delta.Count(); dr > 0 && dr >= minMove {
		return StepMove, 0
	}
	for gi := range x.groups {
		if x.GroupDeadFraction(gi) >= RebuildThreshold {
			return StepRebuild, gi
		}
	}
	return StepNone, 0
}
