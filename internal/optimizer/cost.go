package optimizer

import (
	"time"

	"hybriddb/internal/plan"
	"hybriddb/internal/sql"
	"hybriddb/internal/stats"
	"hybriddb/internal/storage"
	"hybriddb/internal/table"
	"hybriddb/internal/value"
	"hybriddb/internal/vclock"
)

// accessCand is one costed access path for a table.
type accessCand struct {
	scan    *plan.Scan
	outRows float64       // rows produced after all pushed filters
	cpu     time.Duration // estimated CPU work
	io      time.Duration // estimated I/O time
	sorted  bool          // output ordered by ClusterKeys[0]
}

func (c *accessCand) cost() time.Duration { return c.cpu + c.io }

// selOfRange estimates the selectivity of a range via the histogram.
// Point ranges (equality predicates) use the distinct-value estimate:
// range interpolation would assign a zero-width interval no rows.
func selOfRange(h *stats.Histogram, r *colRange) float64 {
	if r == nil || !r.bounded() {
		return 1
	}
	if !r.loOpen && !r.hiOpen && !r.loExcl && !r.hiExcl && value.Compare(r.lo, r.hi) == 0 {
		return h.SelectivityEq(r.lo)
	}
	lo, hi := value.Null, value.Null
	if !r.loOpen {
		lo = r.lo
	}
	if !r.hiOpen {
		hi = r.hi
	}
	return h.SelectivityRange(lo, hi)
}

// tableSelectivity estimates the combined selectivity of the table's
// pushed-down conjuncts: histogram-based for inferred ranges, a magic
// factor for non-sargable predicates.
func tableSelectivity(t *table.Table, info *tableInfo) float64 {
	sel := 1.0
	for _, ord := range sortedRangeOrds(info.ranges) {
		sel *= selOfRange(t.Histogram(ord), info.ranges[ord])
	}
	sargableCount := 0
	for _, c := range info.conjuncts {
		if _, _, _, ok := sargable(c); ok {
			sargableCount++
		} else if bt, ok := c.(*sql.Between); ok && !bt.Not {
			sargableCount++
		}
	}
	for i := sargableCount; i < len(info.conjuncts); i++ {
		sel *= 0.33
	}
	return sel
}

// candidates enumerates and costs every access path for one table; the
// table's primary structure is always one of them.
func candidates(t *table.Table, info *tableInfo, opts Options) []accessCand {
	m := opts.Model
	n := float64(t.RowCount())
	if n < 1 {
		n = 1
	}
	sel := tableSelectivity(t, info)
	outRows := n * sel
	rowWidth := float64(t.Schema.RowWidth())
	var cands []accessCand

	bound := func(r *colRange) (lo, hi plan.Bound) {
		lo, hi = plan.Bound{Unbounded: true}, plan.Bound{Unbounded: true}
		if r != nil && !r.loOpen {
			lo = plan.Bound{Val: r.lo, Inclusive: !r.loExcl}
		}
		if r != nil && !r.hiOpen {
			hi = plan.Bound{Val: r.hi, Inclusive: !r.hiExcl}
		}
		return lo, hi
	}

	baseScan := func(access plan.AccessKind) *plan.Scan {
		return &plan.Scan{
			Table:    t,
			TableIdx: info.idx,
			SlotBase: info.slotBase,
			Access:   access,
			SeekCol:  -1,
			Lo:       plan.Bound{Unbounded: true},
			Hi:       plan.Bound{Unbounded: true},
			Filter:   info.conjuncts,
			NeedCols: info.needCols,
			Covered:  true,
		}
	}

	// --- Primary structure access ---
	switch t.Primary() {
	case table.PrimaryHeap:
		s := baseScan(plan.AccessHeapScan)
		cands = append(cands, accessCand{
			scan:    s,
			outRows: outRows,
			cpu:     vclock.CPU(int64(n), m.RowCPU),
			io:      m.Data.ReadTime(int64(n*(rowWidth+8)), 1),
		})
	case table.PrimaryBTree:
		keyCol := -1
		if len(t.ClusterKeys) > 0 {
			keyCol = t.ClusterKeys[0]
		}
		r := info.ranges[keyCol]
		if keyCol >= 0 && r != nil && r.bounded() {
			keySel := selOfRange(t.Histogram(keyCol), r)
			seekRows := n * keySel
			s := baseScan(plan.AccessClusteredSeek)
			s.SeekCol = keyCol
			s.Lo, s.Hi = bound(r)
			bytes := int64(seekRows * (rowWidth + 24))
			pages := bytes/storage.PageSize + 1
			cands = append(cands, accessCand{
				scan:    s,
				outRows: outRows,
				cpu:     m.SeekCPU + vclock.CPU(int64(seekRows), m.RowCPU) + time.Duration(pages)*m.PageCPU,
				io:      m.Data.ReadTime(bytes, int64(t.Clustered().Height())),
				sorted:  true,
			})
		}
		s := baseScan(plan.AccessClusteredScan)
		cands = append(cands, accessCand{
			scan:    s,
			outRows: outRows,
			cpu:     vclock.CPU(int64(n), m.RowCPU),
			io:      m.Data.ReadTime(t.Clustered().Bytes(), 1),
			sorted:  true,
		})
	case table.PrimaryColumnstore:
		// NoColumnstore drops columnstore indexes, not the only copy of
		// a clustered-columnstore table's rows.
		cands = append(cands, csiCandidate(t, info, opts, nil, t.CCI(), outRows, n))
	}

	// --- Secondary indexes ---
	for _, sec := range opts.secondaries(t) {
		if sec.Columnstore {
			if opts.NoColumnstore {
				continue
			}
			var meta csiMeta
			if sec.CSI != nil {
				meta = sec.CSI
			}
			cands = append(cands, csiCandidate(t, info, opts, sec, meta, outRows, n))
			continue
		}
		if len(sec.Keys) == 0 {
			continue
		}
		keyCol := sec.Keys[0]
		r := info.ranges[keyCol]
		if r == nil || !r.bounded() {
			continue
		}
		covered, ok := seekable(t, sec, info.needCols)
		if !ok {
			continue
		}
		keySel := selOfRange(t.Histogram(keyCol), r)
		seekRows := n * keySel
		s := baseScan(plan.AccessSecondarySeek)
		s.Index = sec
		s.SeekCol = keyCol
		s.Lo, s.Hi = bound(r)
		s.Covered = covered
		entryWidth := float64(8*len(sec.Keys) + 8*len(sec.Include) + 8*len(t.ClusterKeys) + 24)
		bytes := int64(seekRows * entryWidth)
		cpu := m.SeekCPU + vclock.CPU(int64(seekRows), m.RowCPU) +
			time.Duration(bytes/storage.PageSize+1)*m.PageCPU
		io := m.Data.ReadTime(bytes, 3)
		if !covered {
			// Key lookup per qualifying row: a seek plus a random page.
			cpu += time.Duration(seekRows) * (m.SeekCPU + m.PageCPU)
			io += m.Data.ReadTime(int64(seekRows)*storage.PageSize, int64(seekRows))
		}
		cands = append(cands, accessCand{scan: s, outRows: outRows, cpu: cpu, io: io})
	}
	return cands
}

// csiMeta is the columnstore metadata surface the costing needs; a
// materialized colstore.Index implements it, hypothetical indexes have
// none (nil).
type csiMeta interface {
	ColumnBytes(int) int64
	PruneFraction(int, value.Value, value.Value) float64
	// ScanTax is the extra CPU the index's write-side backlog (delta
	// rows, buffered deletes, delete-bitmap dead rows) charges a scan of
	// ncols columns — see colstore.Index.ScanTax.
	ScanTax(m *vclock.Model, ncols int) time.Duration
}

// csiCandidate costs a columnstore scan (primary or secondary,
// materialized or hypothetical) with segment elimination.
func csiCandidate(t *table.Table, info *tableInfo, opts Options, sec *table.Secondary, idx csiMeta, outRows, n float64) accessCand {
	m := opts.Model
	s := &plan.Scan{
		Table:     t,
		TableIdx:  info.idx,
		SlotBase:  info.slotBase,
		Access:    plan.AccessCSIScan,
		Index:     sec,
		SeekCol:   -1,
		Lo:        plan.Bound{Unbounded: true},
		Hi:        plan.Bound{Unbounded: true},
		Filter:    info.conjuncts,
		NeedCols:  info.needCols,
		Covered:   true,
		BatchMode: !opts.NoBatchMode,
	}
	if !opts.NoKernelPushdown {
		// Hand sargable conjuncts to the scanner's encoding-aware
		// kernels; the executor keeps only the residual expressions.
		// Costing still uses the full conjunct set via tableSelectivity,
		// so the split never changes the chosen plan shape.
		s.Push, s.Filter = splitPushable(info.conjuncts, info.slotBase)
	}
	frac := 1.0
	// Pick the bounded range column with the best elimination
	// (lowest-ordinal wins ties, so the pick is deterministic).
	for _, ord := range sortedRangeOrds(info.ranges) {
		r := info.ranges[ord]
		if !r.bounded() {
			continue
		}
		lo, hi := value.Null, value.Null
		if !r.loOpen {
			lo = r.lo
		}
		if !r.hiOpen {
			hi = r.hi
		}
		var f float64
		if idx != nil && !opts.NoElimination {
			f = idx.PruneFraction(ord, lo, hi)
		} else if sec != nil && sec.Hypothetical {
			f = hypotheticalPruneFraction(t, sec, ord, selOfRange(t.Histogram(ord), r))
		} else {
			f = 1
		}
		if f < frac {
			frac = f
			s.SeekCol = ord
			s.Lo = plan.Bound{Val: lo, Inclusive: true, Unbounded: lo.IsNull()}
			s.Hi = plan.Bound{Val: hi, Inclusive: true, Unbounded: hi.IsNull()}
		}
	}
	if opts.NoElimination {
		frac, s.SeekCol = 1.0, -1
	}

	need := info.needCols
	if need == nil {
		need = allOrdinals(t.Schema.Len())
	}
	var bytes int64
	for _, c := range need {
		bytes += columnBytes(t, sec, idx, c)
	}
	bytes = int64(float64(bytes) * frac)
	scanned := n * frac
	perValue := m.BatchCPU * 3 // decode + predicate + downstream batch work
	if opts.NoBatchMode {
		perValue = m.RowCPU
		s.BatchMode = false
	}
	cpu := vclock.CPU(int64(scanned*float64(len(need)+1)), perValue)
	if idx != nil {
		// Compaction debt: a bloated delta store or pending delete
		// buffer pushes the scan off the encoding-aware kernels, so a
		// backlogged CSI can lose to the B+ path until the tuple mover
		// catches up — exactly the hybrid trade-off the paper measures.
		cpu += idx.ScanTax(m, len(need))
	}
	return accessCand{
		scan:    s,
		outRows: outRows,
		cpu:     cpu,
		io:      m.Data.ReadTime(bytes, int64(len(need))),
	}
}

// columnBytes returns the (estimated) compressed size of one column.
func columnBytes(t *table.Table, sec *table.Secondary, idx csiMeta, col int) int64 {
	if sec != nil && sec.Hypothetical {
		if col < len(sec.ColBytes) {
			return sec.ColBytes[col]
		}
		return sec.EstBytes / int64(t.Schema.Len()+1)
	}
	if idx != nil {
		return idx.ColumnBytes(col)
	}
	return 0
}

// hypotheticalPruneFraction estimates segment elimination for an index
// that does not exist yet: effective when the table is clustered on
// the predicate column, or when the candidate is a sorted columnstore
// ordered on it (segments then have disjoint ranges).
func hypotheticalPruneFraction(t *table.Table, sec *table.Secondary, col int, sel float64) float64 {
	sorted := len(t.ClusterKeys) > 0 && t.ClusterKeys[0] == col
	if sec != nil && len(sec.SortColumns) > 0 && sec.SortColumns[0] == col {
		sorted = true
	}
	if sorted {
		f := sel + 0.01
		if f > 1 {
			f = 1
		}
		return f
	}
	return 1
}

// seekable reports whether a seek through the secondary B+ tree sec may
// be built, and whether it covers need: an uncovered seek looks each row
// up by its cluster key, which a clustered columnstore does not have.
func seekable(t *table.Table, sec *table.Secondary, need []int) (covered, ok bool) {
	covered = coversNeeded(t, sec, need)
	return covered, covered || t.Primary() != table.PrimaryColumnstore
}

// coversNeeded reports whether a secondary B+ tree contains every
// needed column (keys, includes, or the clustering key it carries).
func coversNeeded(t *table.Table, sec *table.Secondary, need []int) bool {
	if need == nil {
		need = allOrdinals(t.Schema.Len())
	}
	have := map[int]bool{}
	for _, k := range sec.Keys {
		have[k] = true
	}
	for _, k := range sec.Include {
		have[k] = true
	}
	for _, k := range t.ClusterKeys {
		have[k] = true
	}
	for _, c := range need {
		if !have[c] {
			return false
		}
	}
	return true
}

func allOrdinals(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
