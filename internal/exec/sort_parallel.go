// Parallel sort and TOP-N: the last serial gathers on the batch spine.
// A Parallel-marked Sort fed directly by a morselizable columnstore
// scan runs morsel-driven — each worker drains whole-rowgroup morsels
// and stable-sorts them locally — and the gather merges the per-morsel
// runs with a tournament ("loser tree") k-way merge in morsel-index
// order. Ties across runs resolve to the lower morsel index, and each
// run is a stable-sorted slice of the serial scan order, so the merged
// output is exactly the global stable sort a serial rowSorter
// produces. Like every morsel-driven operator, the fold structure is
// part of the simulated plan: it runs at every worker count (inline at
// Workers<=1), so rows, Metrics, and traces are bit-identical at any
// parallelism. A TOP directly above an eligible Sort pushes its limit
// into the morsels and the merge: each morsel keeps only its first N
// rows in a bounded heap (topNRun), and the merge stops after N rows.
// Charges are computed from row counts, so they are the full sort's.
package exec

import (
	"container/heap"
	"sort"
	"time"

	"hybriddb/internal/colstore"
	"hybriddb/internal/plan"
	"hybriddb/internal/value"
	"hybriddb/internal/vclock"
)

// buildMorselSort builds n when it is a Sort, or a TOP over a Sort,
// that parallelSortEligible accepts, and reports ok=false otherwise. A
// TOP pushes its limit into the morsels and the merge; the sort under
// it never becomes a cursor, so its trace node is opened here with the
// construction deltas BuildBatch would record.
func buildMorselSort(ctx *Context, n plan.Node) (BatchCursor, bool, error) {
	s, _ := n.(*plan.Sort)
	top, _ := n.(*plan.Top)
	if top != nil {
		s, _ = top.Input.(*plan.Sort)
	}
	scan, morsels, ok := parallelSortEligible(ctx, s)
	if !ok {
		return nil, false, nil
	}
	if top == nil {
		rows, err := morselSortRows(ctx, s, scan, morsels, 0)
		if err != nil {
			return nil, true, err
		}
		return newLift(ctx, rowsStep(rows), layoutOf(ctx, s)), true, nil
	}
	tn, done := openTrace(ctx, s)
	rows, err := morselSortRows(ctx, s, scan, morsels, top.N)
	done()
	if err != nil {
		return nil, true, err
	}
	var in BatchCursor = newLift(ctx, rowsStep(rows), layoutOf(ctx, s))
	if tn != nil {
		in = &traceBatchCursor{ctx: ctx, tn: tn, in: in}
	}
	return &batchTop{in: in, n: top.N}, true, nil
}

// parallelSortEligible reports whether s takes the morsel-driven path
// under ctx (a nil s does not), and if so over which scan and morsels.
func parallelSortEligible(ctx *Context, s *plan.Sort) (*plan.Scan, []colstore.ScanPartition, bool) {
	if s == nil || !s.Parallel {
		return nil, nil, false
	}
	scan, ok := s.Input.(*plan.Scan)
	if !ok || scan.Access != plan.AccessCSIScan {
		return nil, nil, false
	}
	_, morsels, ok := morselizableScan(ctx, scan.Parallel, scan)
	return scan, morsels, ok
}

// morselSortRows runs sort s morsel-driven over the scan and morsels
// parallelSortEligible returned and gives back the globally ordered
// rows (the first limit rows when limit > 0).
func morselSortRows(ctx *Context, s *plan.Sort, scan *plan.Scan, morsels []colstore.ScanPartition, limit int64) ([]value.Row, error) {
	runs := make([][]value.Row, len(morsels))
	runBytes := make([]int64, len(morsels))
	cmp := compileSortKeys(s.Keys)
	err := runMorsels(ctx, scan, morsels, true, func(mi int, wctx *Context, src *csiBatchSource) error {
		var rows []value.Row
		var top *topNRun
		var scratch value.Row
		if limit > 0 {
			top = &topNRun{cmp: cmp, n: limit}
			scratch = make(value.Row, wctx.TotalSlots)
		}
		var n int64
		for {
			b, ok := src.nextCharged()
			if !ok {
				break
			}
			sb := src.slotBatch(b)
			// Workers never Alloc (fork MemPeak would double-count); byte
			// totals are recorded per morsel and accounted at the gather,
			// for every scanned row, kept or not.
			for i := 0; i < b.Len(); i++ {
				runBytes[mi] += int64(sb.rowWidth(i) + 24)
			}
			n += int64(b.Len())
			if top == nil {
				rows = sb.appendRows(rows)
				continue
			}
			for i := 0; i < b.Len(); i++ {
				top.offer(fillRow(b, b.LiveIndex(i), src.slots, scratch))
			}
		}
		if top == nil {
			sortRowsCharged(wctx, cmp, len(s.Keys), rows)
		} else {
			rows = top.sorted()
			chargeSort(wctx, len(s.Keys), n)
		}
		runs[mi] = rows
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Gather: account the runs' memory on the query tracker in morsel
	// order, merge, release — the serial sorter's Alloc total and Free
	// point, so MemPeak interleaving with downstream operators matches.
	var total int64
	for mi := range runs {
		ctx.Tr.Alloc(runBytes[mi])
		total += runBytes[mi]
	}
	out, mergeCost := mergeSortedRuns(ctx, cmp, len(s.Keys), runs, limit)
	if ctx.Trace != nil {
		// Virtual nanoseconds of the k-way merge (the charge above) —
		// never wall-clock time, which is banned in this package.
		ctx.Trace.SetAttr("parallel_sort_merge_ns", mergeCost.Nanoseconds())
	}
	ctx.Tr.Free(total)
	return out, nil
}

// topNRun keeps the first n rows, in stable sort order, of the rows
// offered to it: a max-heap on (sort key, arrival ordinal) whose root
// is the worst row kept. Rows arrive in scan order, so a row that ties
// the root on the key arrived later and loses; only a row sorting
// strictly before the root is admitted. Admitted rows are copied out of
// the caller's scratch row, and once the heap is full an admitted row
// overwrites the storage of the row it evicts.
type topNRun struct {
	cmp  func(a, b value.Row) int
	n    int64
	heap []topNEntry
	seen int64
}

type topNEntry struct {
	row value.Row
	ord int64
}

// Less orders the heap worst first: entry i sorts after entry j under
// (key, ordinal).
func (h *topNRun) Less(i, j int) bool {
	c := h.cmp(h.heap[i].row, h.heap[j].row)
	return c > 0 || (c == 0 && h.heap[i].ord > h.heap[j].ord)
}
func (h *topNRun) Len() int      { return len(h.heap) }
func (h *topNRun) Swap(i, j int) { h.heap[i], h.heap[j] = h.heap[j], h.heap[i] }
func (h *topNRun) Push(x any)    { h.heap = append(h.heap, x.(topNEntry)) }
func (h *topNRun) Pop() any {
	e := h.heap[len(h.heap)-1]
	h.heap = h.heap[:len(h.heap)-1]
	return e
}

// offer considers row, which the caller may overwrite once offer returns.
func (h *topNRun) offer(row value.Row) {
	ord := h.seen
	h.seen++
	if int64(len(h.heap)) < h.n {
		heap.Push(h, topNEntry{row: row.Clone(), ord: ord})
		return
	}
	if h.cmp(row, h.heap[0].row) >= 0 {
		return
	}
	copy(h.heap[0].row, row)
	h.heap[0].ord = ord
	heap.Fix(h, 0)
}

// sorted returns the kept rows in (key, ordinal) order: exactly the
// first n rows of a stable sort of everything offered.
func (h *topNRun) sorted() []value.Row {
	sort.Sort(sort.Reverse(h))
	rows := make([]value.Row, len(h.heap))
	for i, e := range h.heap {
		rows[i] = e.row
	}
	return rows
}

// mergeSortedRuns merges stable-sorted runs with a tournament tree
// (log2(k) comparisons per emitted row, the loser-tree merge bound),
// stopping after limit rows when limit > 0. The comparison charge is a
// function of (emitted, run count, key count) only, so it is identical
// at every worker count.
func mergeSortedRuns(ctx *Context, cmp func(a, b value.Row) int, nKeys int, runs [][]value.Row, limit int64) ([]value.Row, time.Duration) {
	var total int64
	for _, r := range runs {
		total += int64(len(r))
	}
	n := total
	if limit > 0 && limit < n {
		n = limit
	}
	out := make([]value.Row, 0, n)
	lt := newMergeTree(cmp, runs)
	for int64(len(out)) < n {
		row, ok := lt.pop()
		if !ok {
			break
		}
		out = append(out, row)
	}
	var cost time.Duration
	if len(runs) > 1 && len(out) > 0 {
		comparisons := int64(len(out)) * int64(log2(int64(len(runs))))
		cost = vclock.CPU(comparisons*int64(nKeys), ctx.Tr.Model.SortCPU)
		ctx.Tr.ChargeSerialCPU(cost)
	}
	return out, cost
}

// mergeTree is a k-way tournament tree over sorted runs. Leaves hold
// run indexes (or -1 past the padded width); internal nodes hold the
// winning run of their subtree, so a pop replays one leaf-to-root path
// — log2(k) comparisons — instead of rescanning all heads. Ties
// resolve to the lower run index, which preserves global stability
// because run order is morsel order is serial scan order.
type mergeTree struct {
	cmp  func(a, b value.Row) int
	runs [][]value.Row
	pos  []int
	kp   int   // leaf width, len(runs) padded to a power of two
	node []int // 1-based heap layout; node[1] is the overall winner
}

func newMergeTree(cmp func(a, b value.Row) int, runs [][]value.Row) *mergeTree {
	kp := 1
	for kp < len(runs) {
		kp *= 2
	}
	t := &mergeTree{cmp: cmp, runs: runs, pos: make([]int, len(runs)), kp: kp, node: make([]int, 2*kp)}
	for i := 0; i < kp; i++ {
		if i < len(runs) {
			t.node[kp+i] = i
		} else {
			t.node[kp+i] = -1
		}
	}
	for i := kp - 1; i >= 1; i-- {
		t.node[i] = t.winner(t.node[2*i], t.node[2*i+1])
	}
	return t
}

// head returns run i's current front row, nil when exhausted.
func (t *mergeTree) head(i int) value.Row {
	if i < 0 || t.pos[i] >= len(t.runs[i]) {
		return nil
	}
	return t.runs[i][t.pos[i]]
}

// winner picks the run whose head sorts first; exhausted runs lose,
// full-key ties go to the lower run index.
func (t *mergeTree) winner(a, b int) int {
	ra, rb := t.head(a), t.head(b)
	switch {
	case ra == nil && rb == nil:
		if a >= 0 && (b < 0 || a < b) {
			return a
		}
		return b
	case ra == nil:
		return b
	case rb == nil:
		return a
	}
	c := t.cmp(ra, rb)
	if c < 0 || (c == 0 && a < b) {
		return a
	}
	return b
}

// pop removes and returns the smallest remaining row.
func (t *mergeTree) pop() (value.Row, bool) {
	w := t.node[1]
	row := t.head(w)
	if row == nil {
		return nil, false
	}
	t.pos[w]++
	for i := (t.kp + w) / 2; i >= 1; i /= 2 {
		t.node[i] = t.winner(t.node[2*i], t.node[2*i+1])
	}
	return row, true
}
