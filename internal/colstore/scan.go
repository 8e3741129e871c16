package colstore

import (
	"time"

	"hybriddb/internal/btree"
	"hybriddb/internal/metrics"
	"hybriddb/internal/value"
	"hybriddb/internal/vclock"
	"hybriddb/internal/vec"
)

// Process-wide segment-elimination counters (data skipping).
var (
	mGroupsScanned = metrics.NewCounter("hybriddb_rowgroups_scanned_total", "rowgroups decoded by scans")
	mGroupsPruned  = metrics.NewCounter("hybriddb_rowgroups_pruned_total", "rowgroups skipped via min/max segment elimination")
)

// ScanSpec configures a columnstore scan.
type ScanSpec struct {
	// Cols are the index-schema ordinals to decode. Nil means all.
	Cols []int
	// PruneCol, when >= 0, names a column with a range predicate
	// [Lo, Hi] (inclusive; a Null bound is open) used for segment
	// elimination via rowgroup min/max metadata.
	PruneCol int
	Lo, Hi   value.Value
	// Preds are predicates the scanner owns end to end: on compressed
	// rowgroups without a pending delete buffer they run as
	// encoding-aware kernels over the compressed representation and the
	// batch is late-materialized for surviving rows only; on the delta
	// store and delete-buffer scans they fall back to naive post-decode
	// evaluation. Either way every emitted row satisfies all of them, so
	// the executor must not re-apply pushed predicates.
	Preds []Pred
	// Partition, when non-nil, restricts the scan to one morsel of a
	// parallel execution: compressed rowgroups [GroupLo, GroupHi) plus,
	// when Delta is set, the whole delta store. Segment elimination still
	// applies within the range. Partitions are only valid on indexes for
	// which Partitionable reports true.
	Partition *ScanPartition
}

// ScanPartition names one morsel of a partitioned scan.
type ScanPartition struct {
	GroupLo, GroupHi int  // compressed rowgroup range [lo, hi)
	Delta            bool // include the delta store
}

// Scanner iterates an index in batches. Usage:
//
//	sc := idx.NewScanner(tr, spec)
//	for sc.Next() {
//	    b := sc.Batch()          // decoded columns, spec.Cols order
//	    locs := sc.Locators()    // physical locator per live row
//	}
//	sc.Reaim(&part)              // the same scan over another partition
type Scanner struct {
	x    *Index
	tr   *vclock.Tracker
	spec ScanSpec
	cols []int

	gi       int // next rowgroup
	offset   int // next row within current group (batched)
	curGroup *rowGroup
	segs     []*segment

	deltaIt *btree.Iterator // non-nil once the delta phase has begun

	batch *vec.Batch

	// Where the current batch's rows live, for Locators to resolve on
	// demand: batch position p is delta key deltaSeqs[p] in the delta
	// phase; otherwise row locRows[p] of rowgroup locGroup when the
	// kernel path late-materialized the positions locRows lists, else
	// row locFrom+p. locs is Locators' reusable output.
	locGroup  int32
	locFrom   int
	locRows   []int
	deltaSeqs []int64
	locs      []Locator

	del    *deleteSet // pending buffered deletes to anti-semi join, or nil
	keyPos []int      // positions of key ordinals within s.cols
	key    value.Row  // scratch: the current row's logical key

	// Predicate pushdown state. predPos maps each pred to its vector
	// index in s.cols (the pred column is appended if the caller did not
	// request it); kernelOK gates the compressed fast path on every pred
	// kind being kernel-evaluable.
	predPos  []int
	kernelOK bool
	segPreds []segPred // compiled for the current rowgroup

	// selScratch is the reusable selection vector (the kernel's, and the
	// naive fallback's), unpackBuf the kernel's packed-decode block.
	// Like the batch, their contents are valid only until the next Next
	// or Reaim call on this scanner.
	selScratch []int
	unpackBuf  []uint64
	// deltaRowBuf is the delta path's reusable row buffer, same
	// lifetime contract as the batch.
	deltaRowBuf []value.Row

	ScanStats
}

// ScanStats counts what one aim of a Scanner read. KernelBatches /
// FallbackBatches count batches with pushed predicates evaluated by the
// compressed-domain kernels vs the naive post-decode fallback;
// KernelRowsIn/Out measure kernel selectivity (RowsOut/RowsIn is the
// sel_density trace attribute); RunsSkipped counts whole RLE runs
// rejected without touching their rows.
type ScanStats struct {
	GroupsScanned    int
	GroupsEliminated int
	DeltaRowsScanned int
	KernelBatches    int
	FallbackBatches  int
	KernelRowsIn     int64
	KernelRowsOut    int64
	RunsSkipped      int64
}

// NewScanner starts a scan.
func (x *Index) NewScanner(tr *vclock.Tracker, spec ScanSpec) *Scanner {
	if spec.Cols == nil {
		spec.Cols = make([]int, x.cfg.Schema.Len())
		for i := range spec.Cols {
			spec.Cols[i] = i
		}
	}
	s := &Scanner{x: x, tr: tr, spec: spec}
	s.Reaim(spec.Partition)
	return s
}

// Reaim restarts the scan on partition part (nil: the whole index) with
// the same index, tracker and spec, keeping the batch, selection and
// decode buffers, so a worker that scans many morsels allocates them
// once. What belongs to one pass starts over: the position, the stats
// and the pending delete buffer, which a pass consumes. The batch and
// locators of the previous aim are invalid from here on.
func (s *Scanner) Reaim(part *ScanPartition) {
	s.spec.Partition = part
	s.gi, s.offset, s.curGroup, s.deltaIt = 0, 0, nil, nil
	if part != nil {
		s.gi = part.GroupLo
	}
	s.ScanStats = ScanStats{}
	del := s.x.pendingDeletes(s.tr)
	if s.batch == nil || (del == nil) != (s.del == nil) {
		s.del = del
		s.layout()
	}
	s.del = del
	s.batch.Reset()
}

// layout resolves the columns the scan decodes — the requested ones,
// plus the logical key when a delete buffer is pending and any pred
// column not requested — and allocates the batch that holds them.
func (s *Scanner) layout() {
	x, spec := s.x, s.spec
	s.cols, s.keyPos, s.key = spec.Cols, nil, nil

	// The anti-semi join against the delete buffer needs the logical key
	// columns; decode them too if they are not already requested.
	if s.del != nil {
		s.cols = append([]int(nil), spec.Cols...)
		s.keyPos = make([]int, len(x.cfg.KeyOrdinals))
		s.key = make(value.Row, len(s.keyPos))
		for ki, ko := range x.cfg.KeyOrdinals {
			pos := -1
			for ci, c := range s.cols {
				if c == ko {
					pos = ci
					break
				}
			}
			if pos == -1 {
				pos = len(s.cols)
				s.cols = append(s.cols, ko)
			}
			s.keyPos[ki] = pos
		}
	}

	// Pushed predicates: resolve each pred column to a vector index
	// (decoding it if the caller did not request it) and decide whether
	// the kernel fast path applies. Kernels require every pred to be
	// kernel-evaluable and no pending delete buffer: the buffer is a
	// destructive anti-semi multiset consumed in physical row order, so
	// filtering before it could cancel a different physical duplicate
	// than the naive path would.
	s.predPos, s.kernelOK = nil, false
	if len(spec.Preds) > 0 {
		s.predPos = make([]int, len(spec.Preds))
		s.kernelOK = s.del == nil
		for pi, p := range spec.Preds {
			if p.Col < 0 || p.Col >= x.cfg.Schema.Len() {
				panic("colstore: pred column out of range")
			}
			if !Pushable(x.cfg.Schema.Columns[p.Col].Kind, p.Val) {
				s.kernelOK = false
			}
			pos := -1
			for ci, c := range s.cols {
				if c == p.Col {
					pos = ci
					break
				}
			}
			if pos == -1 {
				pos = len(s.cols)
				s.cols = append(append([]int(nil), s.cols...), p.Col)
			}
			s.predPos[pi] = pos
		}
	}

	kinds := make([]value.Kind, len(s.cols))
	for i, c := range s.cols {
		kinds[i] = x.cfg.Schema.Columns[c].Kind
	}
	s.batch = vec.NewBatch(kinds)
}

// Batch returns the current batch. Only the first len(spec.Cols)
// vectors are the requested columns; any extra vectors were decoded for
// the delete-buffer anti-semi join. The batch, its vectors and its
// selection are the scanner's and are overwritten by the next Next or
// Reaim call: a consumer that keeps rows past that copies them out.
func (s *Scanner) Batch() *vec.Batch { return s.batch }

// Locators returns the physical locator of each live batch row,
// indexed like Batch().Row(i)'s live ordinals. They are resolved from
// the batch's positions when asked for, so a scan that never asks
// builds none; the slice is valid until the next Next call.
func (s *Scanner) Locators() []Locator {
	n := s.batch.Len()
	s.locs = s.locs[:0]
	for i := 0; i < n; i++ {
		p := s.batch.LiveIndex(i)
		switch {
		case s.deltaIt != nil:
			s.locs = append(s.locs, Locator{Delta: true, Seq: s.deltaSeqs[p]})
		case s.locRows != nil:
			s.locs = append(s.locs, Locator{Group: s.locGroup, Row: int32(s.locRows[p])})
		default:
			s.locs = append(s.locs, Locator{Group: s.locGroup, Row: int32(s.locFrom + p)})
		}
	}
	return s.locs
}

// eliminated reports whether the rowgroup can be skipped entirely via
// min/max metadata (segment elimination / data skipping).
func (s *Scanner) eliminated(g *rowGroup) bool {
	if s.spec.PruneCol < 0 {
		return false
	}
	mn, mx := g.mins[s.spec.PruneCol], g.maxs[s.spec.PruneCol]
	if mn.IsNull() || mx.IsNull() {
		return false
	}
	if !s.spec.Lo.IsNull() && value.Compare(mx, s.spec.Lo) < 0 {
		return true
	}
	if !s.spec.Hi.IsNull() && value.Compare(mn, s.spec.Hi) > 0 {
		return true
	}
	return false
}

// Next advances to the next non-empty batch, returning false at the
// end of the index.
func (s *Scanner) Next() bool {
	for {
		if s.deltaIt == nil {
			if !s.nextCompressed() {
				if s.x.delta.Count() == 0 ||
					(s.spec.Partition != nil && !s.spec.Partition.Delta) {
					return false
				}
				s.deltaIt = s.x.delta.First(s.tr)
				continue
			}
			if s.batch.Len() > 0 {
				return true
			}
			continue
		}
		if !s.nextDelta() {
			return false
		}
		if s.batch.Len() > 0 {
			return true
		}
	}
}

// nextCompressed fills the batch from the current rowgroup, advancing
// groups as needed. Returns false when compressed groups are exhausted.
func (s *Scanner) nextCompressed() bool {
	hi := len(s.x.groups)
	if s.spec.Partition != nil && s.spec.Partition.GroupHi < hi {
		hi = s.spec.Partition.GroupHi
	}
	for s.curGroup == nil {
		if s.gi >= hi {
			return false
		}
		g := s.x.groups[s.gi]
		s.gi++
		if s.eliminated(g) {
			s.GroupsEliminated++
			mGroupsPruned.Inc()
			continue
		}
		s.GroupsScanned++
		mGroupsScanned.Inc()
		// Fetch the needed segments: sequential multi-megabyte reads.
		s.segs = s.segs[:0]
		for _, c := range s.cols {
			s.segs = append(s.segs, s.x.store.Get(s.tr, g.segIDs[c], true).(*segment))
			if s.tr != nil {
				s.tr.SegmentsRead++
			}
		}
		// Compile pushed predicates against this rowgroup's segments
		// once; every batch of the group reuses the compiled form.
		if s.kernelOK {
			s.segPreds = s.segPreds[:0]
			for pi, p := range s.spec.Preds {
				s.segPreds = append(s.segPreds, compilePred(s.segs[s.predPos[pi]], p))
			}
		}
		s.curGroup = g
		s.offset = 0
	}

	g := s.curGroup
	from := s.offset
	to := from + vec.BatchSize
	if to > g.n {
		to = g.n
	}
	s.offset = to
	if s.offset >= g.n {
		s.curGroup = nil
	}

	s.batch.Reset()
	s.locGroup, s.locFrom, s.locRows = int32(s.gi-1), from, nil
	n := to - from

	if s.kernelOK && len(s.segPreds) > 0 {
		// Kernel fast path: evaluate the pushed predicates on the
		// compressed representation, then late-materialize the surviving
		// positions only. The emitted batch is dense (Sel == nil).
		sel := s.selBuf(n)
		sel, s.unpackBuf = s.segPreds[0].first(sel, from, to, s.unpackBuf, &s.RunsSkipped)
		for i := 1; i < len(s.segPreds) && len(sel) > 0; i++ {
			sel = s.segPreds[i].refine(sel)
		}
		pruned := n - len(sel)
		if g.ndel > 0 {
			out := sel[:0]
			for _, p := range sel {
				if !g.isDeleted(p) {
					out = append(out, p)
				}
			}
			sel = out
		}
		s.KernelBatches++
		s.KernelRowsIn += int64(n)
		s.KernelRowsOut += int64(len(sel))
		mKernelBatches.Inc()
		mKernelRowsPruned.Add(int64(pruned))
		for ci := range s.cols {
			s.segs[ci].decodeSelected(s.batch.Cols[ci], sel)
		}
		s.batch.SetLen(len(sel))
		s.locRows = sel
		if s.tr != nil {
			// Compressed-domain compare over all rows (cheaper than
			// decode), then decode cost for survivors only.
			s.tr.ChargeParallelCPU(vclock.CPU(int64(n*len(s.segPreds)), s.tr.Model.BatchCPU/4), 1.0)
			s.tr.ChargeParallelCPU(vclock.CPU(int64(len(sel)*len(s.cols)), s.tr.Model.BatchCPU/2), 1.0)
		}
		return true
	}

	for ci := range s.cols {
		s.segs[ci].decodeRange(s.batch.Cols[ci], from, to)
	}
	s.batch.SetLen(n)

	// Decode CPU: batch mode, scales with the plan's DOP.
	if s.tr != nil {
		s.tr.ChargeParallelCPU(vclock.CPU(int64(n*len(s.cols)), s.tr.Model.BatchCPU/2), 1.0)
	}

	// Apply the delete bitmap, the delete-buffer anti-semi join, and any
	// pushed predicates by building a selection vector. Predicates must
	// run after the delete logic: the buffer is a destructive multiset
	// consumed in physical row order, so filtering first could cancel a
	// different physical duplicate.
	needSel := g.ndel > 0 || s.del != nil || len(s.spec.Preds) > 0
	if needSel {
		sel := s.selBuf(n)
		for i := 0; i < n; i++ {
			if g.isDeleted(from+i) || s.cancelled(i) {
				continue
			}
			sel = append(sel, i)
		}
		if len(s.spec.Preds) > 0 {
			s.FallbackBatches++
			mKernelFallbacks.Inc()
			sel = s.applyPredsNaive(sel)
		}
		s.batch.Sel = sel
		// Anti-semi join probe cost.
		if s.del != nil && s.tr != nil {
			s.tr.ChargeParallelCPU(vclock.CPU(int64(n), s.tr.Model.HashCPU), 1.0)
		}
	}
	return true
}

// selBuf returns the selection buffer emptied, with room for n
// positions. It is never nil: a nil selection means every row is live.
func (s *Scanner) selBuf(n int) []int {
	if cap(s.selScratch) < n {
		s.selScratch = make([]int, 0, max(n, vec.BatchSize))
	}
	return s.selScratch[:0]
}

// cancelled reports whether a pending buffered delete cancels the row
// at batch position i, consuming that delete. Both scan phases ask it
// row by row, in physical order.
func (s *Scanner) cancelled(i int) bool {
	if s.del == nil {
		return false
	}
	for ki, kp := range s.keyPos {
		s.key[ki] = s.batch.Cols[kp].Value(i)
	}
	return s.del.cancel(s.key)
}

// applyPredsNaive narrows sel (batch-relative live ordinals) to rows
// matching every pushed predicate, evaluating each on the materialized
// batch — the fallback when the kernel path does not apply.
func (s *Scanner) applyPredsNaive(sel []int) []int {
	in := len(sel)
	out := sel[:0]
	for _, i := range sel {
		ok := true
		for pi, p := range s.spec.Preds {
			if !p.Match(s.batch.Cols[s.predPos[pi]].Value(i)) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, i)
		}
	}
	if s.tr != nil {
		s.tr.ChargeParallelCPU(vclock.CPU(int64(in*len(s.spec.Preds)), s.tr.Model.BatchCPU), 1.0)
	}
	return out
}

// nextDelta fills the batch from the delta store (row-mode access: the
// delta store is a B+ tree, which is why heavy delta traffic hurts
// columnstore scans). One tree range pass collects the batch's rows and
// delta keys into reusable scratch buffers; the batch vectors are then
// filled column-at-a-time so each vector's append loop stays tight.
func (s *Scanner) nextDelta() bool {
	it := s.deltaIt
	if !it.Valid() {
		return false
	}
	s.batch.Reset()
	s.deltaSeqs = s.deltaSeqs[:0]
	rows := s.deltaRowBuf[:0]
	for it.Valid() && len(rows) < vec.BatchSize {
		rows = append(rows, it.Row())
		s.deltaSeqs = append(s.deltaSeqs, it.Key()[0].Int())
		it.Next()
	}
	s.deltaRowBuf = rows
	n := len(rows)
	for ci, c := range s.cols {
		col := s.batch.Cols[ci]
		for _, row := range rows {
			col.Append(row[c])
		}
	}
	s.batch.SetLen(n)
	s.DeltaRowsScanned += n
	if s.tr != nil {
		// Row-mode cost for delta rows.
		s.tr.ChargeParallelCPU(vclock.CPU(int64(n), s.tr.Model.RowCPU), 1.0)
	}
	// Delta rows can also be logically deleted via the delete buffer,
	// and pushed predicates apply here through the naive fallback: the
	// delta store is uncompressed, so there is no kernel form.
	needSel := s.del != nil || len(s.spec.Preds) > 0
	if needSel {
		sel := s.selBuf(n)
		for i := 0; i < n; i++ {
			if !s.cancelled(i) {
				sel = append(sel, i)
			}
		}
		if len(s.spec.Preds) > 0 {
			s.FallbackBatches++
			mKernelFallbacks.Inc()
			sel = s.applyPredsNaive(sel)
		}
		s.batch.Sel = sel
	}
	return true
}

// DeltaScanTax returns the modeled CPU premium this scan paid for rows
// read from the delta store instead of compressed rowgroups: row-mode
// materialization minus what batch decode of the same rows would have
// cost. Zero when no delta rows were scanned or no tracker is attached.
func (s *Scanner) DeltaScanTax() time.Duration {
	if s.DeltaRowsScanned == 0 || s.tr == nil {
		return 0
	}
	m := s.tr.Model
	rowMode := vclock.CPU(int64(s.DeltaRowsScanned), m.RowCPU)
	batchMode := vclock.CPU(int64(s.DeltaRowsScanned*len(s.cols)), m.BatchCPU/2)
	if batchMode >= rowMode {
		return 0
	}
	return rowMode - batchMode
}

// PruneFraction returns the fraction of compressed rows that a scan
// with the given range predicate on col would actually read after
// segment elimination — computed exactly from rowgroup min/max
// metadata, which is how the optimizer costs data skipping.
func (x *Index) PruneFraction(col int, lo, hi value.Value) float64 {
	if x.nTotal == 0 {
		return 1
	}
	probe := &Scanner{x: x, spec: ScanSpec{PruneCol: col, Lo: lo, Hi: hi}}
	var kept int64
	for _, g := range x.groups {
		if !probe.eliminated(g) {
			kept += int64(g.n)
		}
	}
	return float64(kept) / float64(x.nTotal)
}

// ScanRows is a convenience that materializes every live row (in the
// requested columns) — used by tests, maintenance, and index builds.
// Rows are carved out of one backing array per batch rather than
// allocated (and populated value-by-value) per row.
func (x *Index) ScanRows(tr *vclock.Tracker, cols []int) []value.Row {
	sc := x.NewScanner(tr, ScanSpec{Cols: cols, PruneCol: -1})
	ncols := len(sc.spec.Cols)
	var out []value.Row
	for sc.Next() {
		b := sc.Batch()
		n := b.Len()
		if n == 0 {
			continue
		}
		backing := make([]value.Value, n*ncols)
		for i := 0; i < n; i++ {
			p := b.LiveIndex(i)
			row := backing[i*ncols : (i+1)*ncols : (i+1)*ncols]
			for c := 0; c < ncols; c++ {
				row[c] = b.Cols[c].Value(p)
			}
			out = append(out, value.Row(row))
		}
	}
	return out
}

// SampleBlocks returns one reader per block, for block sampling: each
// 128-row range of a rowgroup (its live rows, decoded from segments
// peeked at outside the buffer pool) and each leaf of the delta store.
// It ignores a delete buffer, which primary columnstores do not have.
func (x *Index) SampleBlocks() (out []func(dst []value.Row) []value.Row) {
	for _, g := range x.groups {
		for from := 0; from < g.n; from += 128 {
			out = append(out, func(dst []value.Row) []value.Row {
				return appendLiveRows(dst, g, x.segments(nil, g), from, min(from+128, g.n))
			})
		}
	}
	return append(out, x.delta.SampleBlocks()...)
}
