package exec

import (
	"sort"

	"hybriddb/internal/plan"
	"hybriddb/internal/sql"
	"hybriddb/internal/value"
	"hybriddb/internal/vclock"
)

// sortRunData is one (possibly spilled) sort run.
type sortRunData struct {
	rows  []value.Row
	bytes int64
}

// rowSorter is the grant-aware sorting engine: it materializes and
// orders its input, and when the materialized size exceeds the memory
// grant it switches to an external merge sort — sorted runs are
// "written" to the temp device (charged), memory is released, and the
// runs are merged — reproducing the grant-bounded behaviour behind the
// paper's Section 3.2.2 experiments.
type rowSorter struct {
	ctx  *Context
	keys []plan.SortKey
	cmp  func(a, b value.Row) int
	runs []sortRunData
	cur  sortRunData
}

// compileSortKeys compiles ORDER BY keys once into a row comparator:
// negative when a sorts strictly before b, zero on a full-key tie.
func compileSortKeys(keys []plan.SortKey) func(a, b value.Row) int {
	vals := make([]func(value.Row) value.Value, len(keys))
	for i, k := range keys {
		vals[i] = sql.Compile(k.Expr)
	}
	return func(a, b value.Row) int {
		for i, k := range keys {
			c := value.Compare(vals[i](a), vals[i](b))
			if k.Desc {
				c = -c
			}
			if c != 0 {
				return c
			}
		}
		return 0
	}
}

// sortRowsCharged stable-sorts one run in place under cmp (compiled
// from nKeys keys) and charges the comparison cost.
func sortRowsCharged(ctx *Context, cmp func(a, b value.Row) int, nKeys int, r []value.Row) {
	sort.SliceStable(r, func(i, j int) bool {
		return cmp(r[i], r[j]) < 0
	})
	chargeSort(ctx, nKeys, int64(len(r)))
}

// chargeSort charges the comparisons of sorting n rows on nKeys keys —
// shared by the serial sorter and the per-morsel runs of the parallel
// sort, so a run's charge depends only on how many rows it sorts, never
// on who sorts them or how many it keeps.
func chargeSort(ctx *Context, nKeys int, n int64) {
	if n > 1 {
		comparisons := n * int64(log2(n))
		ctx.Tr.ChargeParallelCPU(vclock.CPU(comparisons*int64(nKeys), ctx.Tr.Model.SortCPU), 0.7)
	}
}

func (s *rowSorter) flushRun() {
	if len(s.cur.rows) == 0 {
		return
	}
	sortRowsCharged(s.ctx, s.cmp, len(s.keys), s.cur.rows)
	// Spill the run: temp write now, temp read at merge.
	s.ctx.Tr.ChargeTempWrite(s.cur.bytes)
	s.ctx.Tr.Free(s.cur.bytes)
	s.runs = append(s.runs, s.cur)
	s.cur = sortRunData{}
}

// add appends one row (which the sorter retains) to the current run,
// spilling first when the row would exceed the grant.
func (s *rowSorter) add(row value.Row) {
	w := int64(row.Width() + 24)
	if s.ctx.overGrant(w) {
		s.flushRun()
	}
	s.ctx.Tr.Alloc(w)
	s.cur.rows = append(s.cur.rows, row)
	s.cur.bytes += w
}

// finish sorts (in memory, or via external merge when runs spilled)
// and returns the ordered rows.
func (s *rowSorter) finish() []value.Row {
	if len(s.runs) == 0 {
		// Everything fit: in-memory sort.
		sortRowsCharged(s.ctx, s.cmp, len(s.keys), s.cur.rows)
		s.ctx.Tr.Free(s.cur.bytes)
		return s.cur.rows
	}
	// External merge: the last partial run spills too, then all runs are
	// read back and merged.
	s.flushRun()
	var total int64
	for _, r := range s.runs {
		s.ctx.Tr.ChargeTempRead(r.bytes)
		total += int64(len(r.rows))
	}
	merged := make([]value.Row, 0, total)
	for _, r := range s.runs {
		merged = append(merged, r.rows...)
	}
	sortRowsCharged(s.ctx, s.cmp, len(s.keys), merged) // merge cost approximated as one more pass
	return merged
}

func log2(n int64) int {
	b := 0
	for n > 1 {
		n >>= 1
		b++
	}
	if b == 0 {
		b = 1
	}
	return b
}
