package colstore

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"hybriddb/internal/btree"
	"hybriddb/internal/metrics"
	"hybriddb/internal/storage"
	"hybriddb/internal/value"
	"hybriddb/internal/vclock"
)

// Process-wide columnstore counters. Gauges track the live totals
// across every index in the process; counters are cumulative.
var (
	mDeltaRows       = metrics.NewGauge("hybriddb_deltastore_rows", "rows currently in delta stores")
	mDeleteBitmap    = metrics.NewGauge("hybriddb_deletebitmap_rows", "rows currently marked in delete bitmaps")
	mBufferedDeletes = metrics.NewGauge("hybriddb_deletebuffer_rows", "logical deletes buffered in secondary columnstores")
	mCompactions     = metrics.NewCounter("hybriddb_tuplemover_compactions_total", "compaction steps installed: moves, folds and rebuilds, background or synchronous")
	mGroupsBuilt     = metrics.NewCounter("hybriddb_rowgroups_compressed_total", "rowgroups compressed (builds, bulk loads, tuple moves)")
)

// DefaultRowGroupSize is the maximum rows per compressed rowgroup
// (SQL Server compresses up to 2^20 rows per group).
const DefaultRowGroupSize = 1 << 20

// Config describes a columnstore index to build.
type Config struct {
	// Schema of the rows stored in the index (all table columns for a
	// primary CSI, the indexed subset for a secondary CSI).
	Schema *value.Schema
	// Primary selects the primary-columnstore update path: deletes go
	// straight to the delete bitmap (requiring a scan to locate the
	// row), and there is no delete buffer. Secondary indexes buffer
	// deletes by logical key and anti-semi join them at scan time.
	Primary bool
	// KeyOrdinals are the base table's logical key columns within
	// Schema; required for secondary indexes (the delete buffer stores
	// these), ignored for primary.
	KeyOrdinals []int
	// RowGroupSize caps rows per compressed rowgroup. Defaults to
	// DefaultRowGroupSize.
	RowGroupSize int
	// NoGroupSort disables the greedy fewest-distinct-first column sort
	// inside each rowgroup that maximizes run lengths (Figure 8); the
	// sort is on by default. Build order across rowgroups always follows
	// input order, so pre-sorted input yields disjoint segment ranges
	// and aggressive segment elimination (Section 3.2.1).
	NoGroupSort bool
	// SortColumns, when set, globally pre-sorts the build input by the
	// given ordinals before compression — the Vertica-projection-style
	// sorted columnstore the paper sketches as a future extension
	// (Section 4.5). Rows arriving later through the delta store are
	// compressed in arrival order, so the sort (and its elimination
	// benefit) degrades under heavy updates, as the paper cautions.
	SortColumns []int
}

// Locator addresses a row in the compressed portion of the index, or a
// delta-store row when Delta is true.
type Locator struct {
	Group int32
	Row   int32
	Delta bool
	Seq   int64
}

type rowGroup struct {
	n        int
	segIDs   []storage.PageID // one per column
	mins     []value.Value
	maxs     []value.Value
	colBytes []int64
	deleted  []uint64 // delete bitmap
	ndel     int
}

func (g *rowGroup) isDeleted(i int) bool {
	return g.deleted != nil && g.deleted[i/64]&(1<<(uint(i)%64)) != 0
}

func (g *rowGroup) markDeleted(i int) bool {
	if g.deleted == nil {
		g.deleted = make([]uint64, (g.n+63)/64)
	}
	if g.deleted[i/64]&(1<<(uint(i)%64)) != 0 {
		return false
	}
	g.deleted[i/64] |= 1 << (uint(i) % 64)
	g.ndel++
	mDeleteBitmap.Inc()
	return true
}

// Index is a columnstore index.
type Index struct {
	store  *storage.Store
	cfg    Config
	groups []*rowGroup
	delta  *btree.Tree // seq -> row
	seq    int64
	delBuf *btree.Tree // logical key -> nothing (secondary only)
	nBuf   int
	nLive  int64 // live rows (compressed - deleted - buffered + delta)
	nTotal int64 // compressed rows incl. deleted

	// delGen invalidates outstanding delta snapshots: bumped whenever a
	// delta row is removed (DeleteAt, InstallMove, InstallFold). Appends
	// never bump it — they land at higher seqs than any snapshot, so the
	// mover cannot be livelocked by sustained inserts.
	delGen uint64
	// bufGen invalidates outstanding fold plans: bumped whenever the
	// delete buffer changes (BufferDelete, InstallFold).
	bufGen uint64
	// highWater, when set, is signalled instead of compressing the whole
	// delta inline when Insert fills it to the rowgroup size.
	highWater         func()
	inlineCompactions int64
}

// Build creates a columnstore index over rows, compressing them in
// input order into rowgroups. The tracker (may be nil) is charged the
// build cost.
func Build(store *storage.Store, cfg Config, rows []value.Row, tr *vclock.Tracker) *Index {
	if cfg.RowGroupSize <= 0 {
		cfg.RowGroupSize = DefaultRowGroupSize
	}
	if !cfg.Primary && len(cfg.KeyOrdinals) == 0 {
		panic("colstore: secondary index requires KeyOrdinals")
	}
	x := &Index{store: store, cfg: cfg, delta: btree.New(store)}
	if !cfg.Primary {
		x.delBuf = btree.New(store)
	}
	if len(cfg.SortColumns) > 0 {
		rows = sortRows(rows, cfg.SortColumns)
	}
	x.appendGroups(rows, tr)
	return x
}

// Schema returns the index's column schema.
func (x *Index) Schema() *value.Schema { return x.cfg.Schema }

// Primary reports whether this is a primary columnstore.
func (x *Index) Primary() bool { return x.cfg.Primary }

// Groups returns the number of compressed rowgroups.
func (x *Index) Groups() int { return len(x.groups) }

// RowGroupSize returns the configured rows-per-rowgroup cap.
func (x *Index) RowGroupSize() int { return x.cfg.RowGroupSize }

// Rows returns the number of live rows.
func (x *Index) Rows() int64 { return x.nLive }

// DeltaRows returns the number of rows in the delta store.
func (x *Index) DeltaRows() int64 { return x.delta.Count() }

// Partitionable reports whether a scan of this index may be split into
// independent rowgroup morsels. A pending delete buffer forbids it: the
// buffer is consumed as a destructive anti-semi multiset during the
// scan, so concurrent partitions would race over which physical row a
// buffered delete cancels.
func (x *Index) Partitionable() bool { return x.nBuf == 0 }

// BufferedDeletes returns the number of entries in the delete buffer.
func (x *Index) BufferedDeletes() int { return x.nBuf }

// DeletedBitmapRows returns the number of rows marked in delete bitmaps.
func (x *Index) DeletedBitmapRows() int {
	n := 0
	for _, g := range x.groups {
		n += g.ndel
	}
	return n
}

// SortColumns returns the global build sort order, or nil.
func (x *Index) SortColumns() []int { return x.cfg.SortColumns }

// appendGroups compresses rows into new rowgroups and makes them
// visible: the bulk path (Build, BulkInsert), where encode and install
// happen in one critical section.
func (x *Index) appendGroups(rows []value.Row, tr *vclock.Tracker) {
	x.install(x.EncodeRows(rows, tr))
	x.nLive += int64(len(rows))
}

// install appends encoded groups to the index. It does not touch nLive:
// whether the rows are new or moved is the caller's knowledge.
func (x *Index) install(groups []*EncodedGroup) {
	for _, eg := range groups {
		x.groups = append(x.groups, eg.g)
		x.nTotal += int64(eg.g.n)
		mGroupsBuilt.Inc()
	}
}

// encodeGroup compresses a non-empty chunk into a rowgroup without
// installing it: segments are allocated in the store, but the group is
// not appended and no index bookkeeping changes, so the tuple mover can
// encode off-lock and install (or discard) under a later critical
// section.
func (x *Index) encodeGroup(chunk []value.Row, tr *vclock.Tracker) *EncodedGroup {
	ncols := x.cfg.Schema.Len()
	if !x.cfg.NoGroupSort {
		chunk, _ = x.sortForCompression(chunk)
	}
	g := &rowGroup{
		n:        len(chunk),
		segIDs:   make([]storage.PageID, ncols),
		mins:     make([]value.Value, ncols),
		maxs:     make([]value.Value, ncols),
		colBytes: make([]int64, ncols),
	}
	col := make([]value.Value, len(chunk))
	var written int64
	for c := 0; c < ncols; c++ {
		for i, r := range chunk {
			col[i] = r[c]
		}
		seg := buildSegment(x.cfg.Schema.Columns[c].Kind, col)
		g.segIDs[c] = x.store.Allocate(seg)
		g.mins[c], g.maxs[c] = seg.min, seg.max
		g.colBytes[c] = seg.bytes
		written += seg.bytes
	}
	if tr != nil {
		// Compression cost: a sort plus encoding passes per column.
		n := int64(len(chunk))
		tr.ChargeParallelCPU(vclock.CPU(n*int64(ncols), tr.Model.RowCPU/4), 1.0)
		tr.ChargeDataWrite(written, 1)
	}
	return &EncodedGroup{g: g}
}

// sortForCompression orders the chunk's columns greedily by ascending
// distinct count and sorts rows lexicographically in that column order,
// mimicking the VertiPaq strategy of Figure 8. It returns the sorted
// copy and the column order; it does not mutate the index, so it is
// safe to call off-lock.
func (x *Index) sortForCompression(chunk []value.Row) ([]value.Row, []int) {
	ncols := x.cfg.Schema.Len()
	distinct := make([]int, ncols)
	ord := make([]int, ncols)
	var d distinctCounter
	for c := range ord {
		distinct[c] = d.count(chunk, c, x.cfg.Schema.Columns[c].Kind)
		ord[c] = c
	}
	slices.SortStableFunc(ord, func(a, b int) int { return cmp.Compare(distinct[a], distinct[b]) })
	return sortRows(chunk, ord), ord
}

// distinctCounter counts a column's distinct values as value.EncodeKey
// tells them apart (NULL is one value, −0.0 is +0.0) by sorting the
// column's scalars, not the chunk's rows. Its buffers are reused from
// column to column.
type distinctCounter struct {
	nums []uint64 // BIGINT, DATE and BOOL payloads, DOUBLE bits
	strs []string
}

func (d *distinctCounter) count(chunk []value.Row, c int, kind value.Kind) int {
	d.nums, d.strs = d.nums[:0], d.strs[:0]
	if kind == value.KindString {
		d.strs = slices.Grow(d.strs, len(chunk))
	} else {
		d.nums = slices.Grow(d.nums, len(chunk))
	}
	null := 0
	for _, r := range chunk {
		switch v := r[c]; v.Kind() {
		case value.KindNull:
			null = 1
		case value.KindString:
			d.strs = append(d.strs, v.Str())
		case value.KindFloat:
			d.nums = append(d.nums, math.Float64bits(v.Float()+0)) // −0.0 + 0 is +0.0
		case value.KindBool:
			var b uint64
			if v.Bool() {
				b = 1
			}
			d.nums = append(d.nums, b)
		default:
			d.nums = append(d.nums, uint64(v.Int()))
		}
	}
	slices.Sort(d.nums)
	slices.Sort(d.strs)
	return null + len(slices.Compact(d.nums)) + len(slices.Compact(d.strs))
}

// sortRows returns a copy of rows, stably sorted by CompareRows on cols.
func sortRows(rows []value.Row, cols []int) []value.Row {
	keys := value.SortRows(rows, cols)
	out := make([]value.Row, len(rows))
	for i := range out {
		out[i] = rows[keys.Pos(i)]
	}
	return out
}

// Insert adds one row to the delta store (trickle insert). When the
// delta store reaches the rowgroup size the index signals the high-water
// callback (the online tuple mover, which compacts asynchronously); with
// no mover attached it falls back to compressing the whole delta inline,
// charging nothing (as in the real engine, where statement latency does
// not include background compression) but stalling the unlucky inserter
// for the encode's wall-clock time.
func (x *Index) Insert(tr *vclock.Tracker, row value.Row) Locator {
	x.seq++
	x.delta.Insert(tr, value.Row{value.NewInt(x.seq)}, row)
	x.nLive++
	mDeltaRows.Inc()
	loc := Locator{Delta: true, Seq: x.seq}
	if x.delta.Count() >= int64(x.cfg.RowGroupSize) {
		if x.highWater != nil {
			x.highWater()
		} else {
			x.inlineCompactions++
			x.TupleMove(nil)
		}
	}
	return loc
}

// SetHighWater installs fn as the delta high-water callback: Insert
// signals it instead of compressing the delta inline once the delta
// store reaches the rowgroup size. fn must not block — it runs under
// the engine's statement lock. nil restores synchronous compaction.
func (x *Index) SetHighWater(fn func()) { x.highWater = fn }

// HighWaterSet reports whether a high-water callback is attached.
func (x *Index) HighWaterSet() bool { return x.highWater != nil }

// InlineCompactions counts synchronous whole-delta compressions taken
// inside Insert — the latency spike the tuple mover exists to remove.
func (x *Index) InlineCompactions() int64 { return x.inlineCompactions }

// BulkInsert adds rows, compressing directly into rowgroups when the
// batch reaches the rowgroup size (bulk load path) and spilling the
// remainder to the delta store.
func (x *Index) BulkInsert(tr *vclock.Tracker, rows []value.Row) {
	full := (len(rows) / x.cfg.RowGroupSize) * x.cfg.RowGroupSize
	x.appendGroups(rows[:full], tr)
	for _, r := range rows[full:] {
		x.Insert(tr, r)
	}
}

// DeleteAt marks the row at loc deleted. Compressed rows go to the
// delete bitmap; delta rows are removed from the delta store. Callers
// on the primary path must have located the row via a scan, which is
// where the paper's primary-CSI delete cost comes from.
func (x *Index) DeleteAt(tr *vclock.Tracker, loc Locator) bool {
	if loc.Delta {
		if x.delta.Delete(tr, value.Row{value.NewInt(loc.Seq)}, nil) {
			x.nLive--
			x.delGen++
			mDeltaRows.Dec()
			return true
		}
		return false
	}
	if int(loc.Group) >= len(x.groups) {
		return false
	}
	g := x.groups[loc.Group]
	if int(loc.Row) >= g.n || !g.markDeleted(int(loc.Row)) {
		return false
	}
	if tr != nil {
		tr.ChargeSerialCPU(vclock.CPU(1, tr.Model.RowCPU))
		tr.ChargeDataWrite(8, 0)
	}
	x.nLive--
	return true
}

// BufferDelete records a logical delete by key in the delete buffer
// (secondary indexes only). The row stays physically present until the
// tuple mover compacts the buffer; scans anti-semi join against it.
func (x *Index) BufferDelete(tr *vclock.Tracker, key value.Row) {
	if x.cfg.Primary {
		panic("colstore: BufferDelete on primary index")
	}
	x.delBuf.Insert(tr, key, nil)
	x.nBuf++
	x.nLive--
	x.bufGen++
	mBufferedDeletes.Inc()
}

// TupleMove runs the maintenance the paper describes, synchronously:
// fold the delete buffer into delete bitmaps and the delta store, then
// compress the whole delta store into rowgroups. These are the
// background mover's own steps (mover.go), in its policy's order, run
// back to back under the caller's lock, so none can abort. It is
// charged to tr (nil = free, modelling background work outside the
// measured query).
func (x *Index) TupleMove(tr *vclock.Tracker) {
	if p := x.PlanFold(tr); p != nil {
		x.InstallFold(p, tr)
	}
	if snap := x.SnapshotDelta(int(x.delta.Count()), tr); snap != nil {
		x.InstallMove(snap, x.EncodeRows(snap.Rows, tr), tr)
	}
}

// Free returns the index's pages (segments, delta store, delete buffer)
// to the store and its rows to the process-wide gauges. The index must
// not be used afterwards; a mover step planned before the drop finds
// its generation stamps stale and aborts its install.
func (x *Index) Free() {
	x.delGen++
	x.bufGen++
	for _, g := range x.groups {
		x.freeGroup(g)
	}
	mDeltaRows.Add(-x.delta.Count())
	x.delta.Free()
	if x.delBuf != nil {
		mBufferedDeletes.Add(-int64(x.nBuf))
		x.delBuf.Free()
	}
	x.groups = nil
}

// freeGroup releases a rowgroup's segments and its delete-bitmap count.
func (x *Index) freeGroup(g *rowGroup) {
	for _, id := range g.segIDs {
		x.store.Free(id)
	}
	mDeleteBitmap.Add(-int64(g.ndel))
}

// Bytes returns the index's total on-disk size: compressed segments,
// delete bitmaps, delta store, and delete buffer.
func (x *Index) Bytes() int64 {
	var total int64
	for _, g := range x.groups {
		for _, id := range g.segIDs {
			total += x.store.SizeOf(id)
		}
		total += int64(len(g.deleted) * 8)
	}
	total += x.delta.Bytes()
	if x.delBuf != nil {
		total += x.delBuf.Bytes()
	}
	return total
}

// ColumnBytes returns the compressed size of one column across all
// rowgroups — the per-column size the what-if optimizer needs
// (Section 4.2).
func (x *Index) ColumnBytes(col int) int64 {
	var total int64
	for _, g := range x.groups {
		total += g.colBytes[col]
	}
	return total
}

// GroupStats describes one rowgroup (diagnostics and tests).
type GroupStats struct {
	Rows     int
	Deleted  int
	Min, Max []value.Value
	Bytes    int64
}

// GroupStat returns stats for rowgroup i.
func (x *Index) GroupStat(i int) GroupStats {
	g := x.groups[i]
	var b int64
	for _, cb := range g.colBytes {
		b += cb
	}
	return GroupStats{Rows: g.n, Deleted: g.ndel, Min: g.mins, Max: g.maxs, Bytes: b}
}

func (l Locator) String() string {
	if l.Delta {
		return fmt.Sprintf("delta(%d)", l.Seq)
	}
	return fmt.Sprintf("(%d:%d)", l.Group, l.Row)
}
