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
// into the merge, stopping after N rows without materializing the rest.
package exec

import (
	"fmt"
	"time"

	"hybriddb/internal/metrics"
	"hybriddb/internal/plan"
	"hybriddb/internal/value"
	"hybriddb/internal/vclock"
)

// parallelSortEligible reports whether s takes the morsel-driven path
// under ctx. It checks exactly the gates morselSortRows applies, so a
// caller that pre-checks (the TOP fusion, which must not manufacture a
// trace node for a sort that then declines) gets a guaranteed ok.
func parallelSortEligible(ctx *Context, s *plan.Sort) bool {
	if !s.Parallel {
		return false
	}
	scan, ok := s.Input.(*plan.Scan)
	if !ok || scan.Access != plan.AccessCSIScan {
		return false
	}
	_, _, ok = morselizableScan(ctx, scan.Parallel, scan)
	return ok
}

// morselSortRows runs a Parallel-marked sort morsel-driven and returns
// the globally ordered rows (the first limit rows when limit > 0).
// Returns ok=false when the sort must stay serial.
func morselSortRows(ctx *Context, s *plan.Sort, limit int64) ([]value.Row, bool, error) {
	if !s.Parallel {
		return nil, false, nil
	}
	scan, ok := s.Input.(*plan.Scan)
	if !ok || scan.Access != plan.AccessCSIScan {
		return nil, false, nil
	}
	_, morsels, ok := morselizableScan(ctx, scan.Parallel, scan)
	if !ok {
		return nil, false, nil
	}
	runs := make([][]value.Row, len(morsels))
	runBytes := make([]int64, len(morsels))
	cmp := compileSortKeys(s.Keys)
	err := runMorsels(ctx, scan, morsels, true, func(mi int, wctx *Context, src *csiBatchSource) error {
		var rows []value.Row
		for {
			b, ok := src.nextCharged()
			if !ok {
				break
			}
			rows = (&SlotBatch{B: b, Slots: src.slots}).appendRows(rows, wctx.TotalSlots)
		}
		// Workers never Alloc (fork MemPeak would double-count); byte
		// totals are recorded per morsel and accounted at the gather.
		for _, r := range rows {
			runBytes[mi] += int64(r.Width() + 24)
		}
		sortRowsCharged(wctx, cmp, len(s.Keys), rows)
		runs[mi] = rows
		return nil
	})
	if err != nil {
		return nil, false, err
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
	return out, true, nil
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

// fusedTopSortRows executes TOP-over-Sort with the limit pushed into
// the parallel merge, manufacturing the Sort's trace node (the sort
// never becomes a cursor) with the construction deltas BuildBatch would
// record. The caller must have checked parallelSortEligible.
func fusedTopSortRows(ctx *Context, t *plan.Top, s *plan.Sort) ([]value.Row, *metrics.TraceNode, error) {
	tn, done := openTrace(ctx, s)
	rows, ok, err := morselSortRows(ctx, s, t.N)
	done()
	if err != nil {
		return nil, nil, err
	}
	if !ok {
		// Unreachable when the caller pre-checked eligibility; fail
		// rather than silently double-building the subtree.
		return nil, nil, fmt.Errorf("exec: fusedTopSortRows on ineligible sort")
	}
	return rows, tn, nil
}
