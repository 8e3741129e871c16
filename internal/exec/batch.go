// The batch spine: the executor's one pipeline. Operators pull
// SlotBatch units (typed column vectors plus a selection vector, or a
// materialized row run from a row-wise operator) through BatchCursor
// trees, so
// the selection vectors produced by the columnstore scan kernels flow
// end-to-end instead of being rematerialized at the first row-mode
// parent — the MonetDB/X100-style vectorization behind the paper's
// batch-mode CPU asymmetry.
//
// BatchCursor is the only operator interface, and BuildBatch the only
// builder. A few operators are row-wise by algorithm: B+ tree seeks and
// heap scans, merge and nested-loop joins, stream aggregation, and bare
// TOP without a blocking child (which must preserve row-at-a-time early
// termination). Each keeps a row-at-a-time step, reads its input
// through a rowReader, and is put on the spine by a lift, which hands
// the step's rows upward as row-layout batches. Everything else —
// filter, project, hash join build/probe, sort, hash aggregation, TOP
// above a blocking operator — is vectorized. Neither the lift nor the
// reader charges the virtual clock (the columnstore scan's batch-to-row
// boundary cost is charged at the scan leaf).
//
// The one-row rule: virtual charges are issued as a batch is
// processed, so batch granularity would be observable wherever a
// consumer stops early — a bare TOP, a merge join running off its
// shorter input. Subtrees built under Context.oneRow therefore wrap
// every vectorized operator in a oneRowCursor and lift row-wise ones
// one row per batch, until a blocking operator (sort, hash aggregate,
// hash-join build) drains its input regardless and lifts the rule
// beneath it.
//
// Ownership: columnar batches are borrowed — valid only until the
// producer's next NextBatch call (producers reuse vectors and
// selection buffers; see vec.SelPool). Blocking consumers copy out.
// The rows of a row-layout batch are freshly materialized and owned by
// the consumer; the slice holding them, like a columnar batch, only
// until the next call. The bufalias analyzer enforces that reused
// batch buffers do not escape their owner except through NextBatch
// itself.
package exec

import (
	"fmt"

	"hybriddb/internal/metrics"
	"hybriddb/internal/plan"
	"hybriddb/internal/value"
	"hybriddb/internal/vec"
)

// BatchCursor produces SlotBatches. A returned batch is valid until
// the next NextBatch call on the same cursor; the rows of a row-layout
// batch are the caller's to keep.
type BatchCursor interface {
	NextBatch() (*SlotBatch, bool)
}

// SlotBatch is the unit of batch-mode data flow: either a columnar
// vec.Batch whose vectors are mapped to composite-row slots, or a run
// of materialized rows (row-wise operators, aggregate/project/sort
// output). Exactly one layout is active: Rows != nil selects the row
// layout.
type SlotBatch struct {
	B     *vec.Batch
	Slots []int // per vector: composite slot, or -1 (hidden uid)
	Rows  []value.Row
}

// Len returns the number of live rows.
func (sb *SlotBatch) Len() int {
	if sb.Rows != nil {
		return len(sb.Rows)
	}
	return sb.B.Len()
}

// evalRow returns a composite row for expression evaluation over live
// ordinal i: the stored row directly in row layout, otherwise scratch
// with the batch's populated slots filled. Slots no vector populates
// must already be NULL in scratch (they stay untouched).
func (sb *SlotBatch) evalRow(i int, scratch value.Row) value.Row {
	if sb.Rows != nil {
		return sb.Rows[i]
	}
	return fillRow(sb.B, sb.B.LiveIndex(i), sb.Slots, scratch)
}

// fillRow writes position p of b's vectors into scratch at the composite
// slots they carry (slots[vi] < 0: not carried) and returns scratch.
func fillRow(b *vec.Batch, p int, slots []int, scratch value.Row) value.Row {
	for vi, slot := range slots {
		if slot >= 0 {
			scratch[slot] = b.Cols[vi].Value(p)
		}
	}
	return scratch
}

// rowWidth returns the in-memory width charged for live ordinal i
// materialized as a composite row: populated slots at
// their value widths plus one NULL-marker byte per empty slot.
func (sb *SlotBatch) rowWidth(i, totalSlots int) int {
	if sb.Rows != nil {
		return sb.Rows[i].Width()
	}
	p := sb.B.LiveIndex(i)
	w, populated := 0, 0
	for vi, slot := range sb.Slots {
		if slot < 0 {
			continue
		}
		populated++
		w += sb.B.Cols[vi].ValueWidth(p)
	}
	return w + (totalSlots - populated)
}

// materializeRows converts the batch's live rows to composite rows.
// Row-layout batches return their rows as-is.
func (sb *SlotBatch) materializeRows(totalSlots int) []value.Row {
	if sb.Rows != nil {
		return sb.Rows
	}
	return sb.appendRows(make([]value.Row, 0, sb.B.Len()), totalSlots)
}

// appendRows appends the batch's live rows to dst as composite rows,
// carving a columnar batch's rows from one backing array (the
// allocation discipline of colstore.ScanRows). Consumers may retain
// the rows; only dst's row headers are the caller's to reuse.
func (sb *SlotBatch) appendRows(dst []value.Row, totalSlots int) []value.Row {
	if sb.Rows != nil {
		return append(dst, sb.Rows...)
	}
	n := sb.B.Len()
	backing := make([]value.Value, n*totalSlots)
	for i := 0; i < n; i++ {
		p := sb.B.LiveIndex(i)
		row := backing[i*totalSlots : (i+1)*totalSlots : (i+1)*totalSlots]
		for vi, slot := range sb.Slots {
			if slot >= 0 {
				row[slot] = sb.B.Cols[vi].Value(p)
			}
		}
		dst = append(dst, row)
	}
	return dst
}

// blockingBelow reports whether the pipeline below n contains an
// operator that drains its input completely before emitting (sort or
// hash aggregation), following the streaming path the way
// optimizer.markParallel does.
func blockingBelow(n plan.Node) bool {
	switch v := n.(type) {
	case *plan.Sort:
		return true
	case *plan.Agg:
		return v.Strategy != plan.AggStream
	case *plan.Filter:
		return blockingBelow(v.Input)
	case *plan.Project:
		return blockingBelow(v.Input)
	case *plan.Join:
		if v.Strategy == plan.JoinHash {
			// The probe side streams through the join.
			return blockingBelow(v.Inner)
		}
		return false
	case *plan.Top:
		return blockingBelow(v.Input)
	}
	return false
}

// BuildBatch constructs the operator tree for a plan node: one
// TraceNode per operator when tracing, construction deltas included.
// It is the executor's only builder.
func BuildBatch(ctx *Context, n plan.Node) (BatchCursor, error) {
	if root, ok := n.(*plan.Root); ok {
		return BuildBatch(ctx, root.Input)
	}
	tn, done := openTrace(ctx, n)
	cur, err := buildBatchNode(ctx, n)
	done()
	if err != nil {
		return nil, err
	}
	// Columnstore scans count batches on their node themselves (the
	// gathered parallel scan per morsel source).
	_, selfBatches := cur.(*batchScanCursor)
	if _, ok := cur.(*gatherBatchCursor); ok {
		selfBatches = true
	}
	// A lift already hands over one row per batch under the rule.
	if _, lifted := cur.(*lift); ctx.oneRow && !lifted {
		cur = &oneRowCursor{in: cur}
	}
	if tn != nil {
		cur = &traceBatchCursor{ctx: ctx, tn: tn, in: cur, selfBatches: selfBatches}
	}
	return cur, nil
}

// buildInput builds an operator's input with the one-row rule set
// (below a bare TOP or a merge join, which may stop pulling early) or
// lifted (below a blocking operator, which pulls its input to
// exhaustion whatever its own consumer does).
func buildInput(ctx *Context, n plan.Node, oneRow bool) (BatchCursor, error) {
	saved := ctx.oneRow
	ctx.oneRow = oneRow
	cur, err := BuildBatch(ctx, n)
	ctx.oneRow = saved
	return cur, err
}

func buildBatchNode(ctx *Context, n plan.Node) (BatchCursor, error) {
	if cur, ok, err := buildMorselSort(ctx, n); ok || err != nil {
		return cur, err
	}
	switch node := n.(type) {
	case *plan.Scan:
		if node.Access == plan.AccessCSIScan {
			return newBatchScan(ctx, node)
		}
		step, err := buildScan(ctx, node)
		if err != nil {
			return nil, err
		}
		return newLift(ctx, step), nil
	case *plan.Filter:
		in, err := BuildBatch(ctx, node.Input)
		if err != nil {
			return nil, err
		}
		return newBatchFilter(ctx, in, node.Conds), nil
	case *plan.Join:
		if node.Strategy == plan.JoinHash {
			return newBatchHashJoin(ctx, node)
		}
		return buildJoin(ctx, node)
	case *plan.Agg:
		if node.Strategy == plan.AggStream {
			in, err := BuildBatch(ctx, node.Input)
			if err != nil {
				return nil, err
			}
			c := &streamAggCursor{ctx: ctx, a: node, args: aggArgs(node), in: newRowReader(ctx, in)}
			return newLift(ctx, c.next), nil
		}
		return buildHashAgg(ctx, node)
	case *plan.Project:
		in, err := BuildBatch(ctx, node.Input)
		if err != nil {
			return nil, err
		}
		return newBatchProject(ctx, in, node.Exprs), nil
	case *plan.Sort:
		in, err := buildInput(ctx, node.Input, false)
		if err != nil {
			return nil, err
		}
		return newBatchSort(ctx, in, node.Keys)
	case *plan.Top:
		if !blockingBelow(node.Input) {
			// A bare TOP terminates its input early row by row; batching it
			// would charge for the rest of the final batch.
			in, err := buildInput(ctx, node.Input, true)
			if err != nil {
				return nil, err
			}
			c := &topCursor{in: newRowReader(ctx, in), n: node.N}
			return newLift(ctx, c.next), nil
		}
		// Above a blocking operator the input is fully drained either way,
		// so TOP batches.
		in, err := BuildBatch(ctx, node.Input)
		if err != nil {
			return nil, err
		}
		return &batchTop{in: in, n: node.N}, nil
	}
	return nil, fmt.Errorf("exec: unsupported plan node %T", n)
}

// traceBatchCursor accounts one plan node for EXPLAIN ANALYZE: emitted
// live rows, batch counts, and the byte-read and simulated-time deltas
// across each NextBatch call. A child's work happens inside its
// parent's call, so BytesRead and Time are inclusive of the subtree,
// like the actual execution statistics of production engines. It sits
// outside the operator's oneRowCursor, so under the one-row rule Rows
// counts the rows the consumer actually pulled.
type traceBatchCursor struct {
	ctx *Context
	tn  *metrics.TraceNode
	in  BatchCursor
	// selfBatches marks operators whose underlying source already
	// counts batches on this node (columnstore scans).
	selfBatches bool
}

func (c *traceBatchCursor) NextBatch() (*SlotBatch, bool) {
	b0, t0 := c.ctx.Tr.BytesRead, c.ctx.Tr.ExecTime()
	sb, ok := c.in.NextBatch()
	c.tn.BytesRead += c.ctx.Tr.BytesRead - b0
	c.tn.Time += c.ctx.Tr.ExecTime() - t0
	if ok {
		c.tn.Rows += int64(sb.Len())
		if !c.selfBatches {
			c.tn.Batches++
		}
	}
	return sb, ok
}

// lift puts a row-wise operator on the spine: it calls the operator's
// row step until it holds limit rows (vec.BatchSize, or one under the
// one-row rule) and hands them over as one row-layout batch. The step
// materializes each row itself, so lifting is free of virtual-clock
// charges. done latches end of stream: a step is never called again
// after it reports exhaustion (a bounded clusteredCursor would read and
// charge one more row past its range).
type lift struct {
	step  rowStep
	limit int
	rows  []value.Row // the batch's row headers, reused batch to batch
	out   SlotBatch
	done  bool
}

func newLift(ctx *Context, step rowStep) *lift {
	l := &lift{step: step, limit: vec.BatchSize}
	if ctx.oneRow {
		l.limit = 1
	}
	return l
}

func (l *lift) NextBatch() (*SlotBatch, bool) {
	if l.done {
		return nil, false
	}
	l.rows = l.rows[:0]
	for len(l.rows) < l.limit {
		r, ok := l.step()
		if !ok {
			l.done = true
			break
		}
		l.rows = append(l.rows, r)
	}
	if len(l.rows) == 0 {
		return nil, false
	}
	l.out = SlotBatch{Rows: l.rows}
	return &l.out, true
}

// rowReader is how a row-wise operator reads its input: one row at a
// time, pulling the next batch only when the last is used up. A
// columnar batch's rows are carved from one backing array per batch
// (appendRows) and only the row headers are reused, so callers may
// retain what next returns. It is charge-free like the lift.
type rowReader struct {
	in    BatchCursor
	width int // composite row width
	rows  []value.Row
	pos   int
}

func newRowReader(ctx *Context, in BatchCursor) *rowReader {
	return &rowReader{in: in, width: ctx.TotalSlots}
}

func (r *rowReader) next() (value.Row, bool) {
	for r.pos >= len(r.rows) {
		sb, ok := r.in.NextBatch()
		if !ok {
			return nil, false
		}
		r.rows, r.pos = sb.appendRows(r.rows[:0], r.width), 0
	}
	row := r.rows[r.pos]
	r.pos++
	return row, true
}

// oneRowCursor re-slices its input's batches into batches of one live
// row, so that whatever consumes them charges row by row and an early
// stop leaves nothing charged but unconsumed. Consumers narrow a
// columnar batch by overwriting its Sel (batchFilter, batchTop), so the
// live positions are copied out and each row is handed over through a
// private header that shares only the vectors with the input batch.
type oneRowCursor struct {
	in   BatchCursor
	cur  *SlotBatch // input batch being handed out, borrowed
	live []int      // its live positions when columnar
	n    int
	pos  int
	view vec.Batch
	out  SlotBatch
}

func (c *oneRowCursor) NextBatch() (*SlotBatch, bool) {
	for c.pos >= c.n {
		sb, ok := c.in.NextBatch()
		if !ok {
			return nil, false
		}
		c.cur, c.n, c.pos = sb, sb.Len(), 0
		if sb.Rows == nil {
			c.live = c.live[:0]
			for i := 0; i < c.n; i++ {
				c.live = append(c.live, sb.B.LiveIndex(i))
			}
			c.view = *sb.B
		}
	}
	i := c.pos
	c.pos++
	if c.cur.Rows != nil {
		c.out = SlotBatch{Rows: c.cur.Rows[i : i+1 : i+1]}
	} else {
		c.view.Sel = c.live[i : i+1 : i+1]
		c.out = SlotBatch{B: &c.view, Slots: c.cur.Slots}
	}
	return &c.out, true
}

// rowsBatchCursor emits a materialized row run in batch-sized chunks
// (aggregate and sort output).
type rowsBatchCursor struct {
	rows []value.Row
	pos  int
	out  SlotBatch
}

func (c *rowsBatchCursor) NextBatch() (*SlotBatch, bool) {
	if c.pos >= len(c.rows) {
		return nil, false
	}
	end := c.pos + vec.BatchSize
	if end > len(c.rows) {
		end = len(c.rows)
	}
	c.out = SlotBatch{Rows: c.rows[c.pos:end]}
	c.pos = end
	return &c.out, true
}

// batchScanCursor is the serial columnstore leaf of the batch spine:
// it forwards the batch source's output with slot mapping, charging
// the composite-row boundary cost per batch (nextCharged), so a scan is
// priced the same whoever reads it.
type batchScanCursor struct {
	ctx *Context
	src *csiBatchSource
	out SlotBatch
}

func newBatchScan(ctx *Context, s *plan.Scan) (BatchCursor, error) {
	if cur, ok, err := newParallelBatchScan(ctx, s); err != nil {
		return nil, err
	} else if ok {
		return cur, nil
	}
	src, err := newCSIBatchSource(ctx, s)
	if err != nil {
		return nil, err
	}
	if ctx.Trace != nil {
		// ctx.Trace is this scan's own node; the wrapping
		// traceBatchCursor accounts rows, bytes, and time, so the source
		// only adds batch counts and rowgroup-elimination attributes.
		src.tn = ctx.Trace
	}
	return &batchScanCursor{ctx: ctx, src: src}, nil
}

func (c *batchScanCursor) NextBatch() (*SlotBatch, bool) {
	b, ok := c.src.nextCharged()
	if !ok {
		return nil, false
	}
	c.out = SlotBatch{B: b, Slots: c.src.slots}
	return &c.out, true
}

// gatherBatchCursor replays morsel-gathered owned batches in morsel
// order (identical to the serial batch order).
type gatherBatchCursor struct {
	batches []*SlotBatch
	pos     int
}

func (c *gatherBatchCursor) NextBatch() (*SlotBatch, bool) {
	if c.pos >= len(c.batches) {
		return nil, false
	}
	b := c.batches[c.pos]
	c.pos++
	return b, true
}

// newParallelBatchScan runs a Parallel-marked CSI scan morsel-driven
// for the batch spine, gathering owned (compacted) batches in morsel
// order. Returns ok=false when the scan must stay serial.
func newParallelBatchScan(ctx *Context, s *plan.Scan) (BatchCursor, bool, error) {
	_, morsels, ok := parallelizableScan(ctx, s.Parallel, s)
	if !ok {
		return nil, false, nil
	}
	outs := make([][]*SlotBatch, len(morsels))
	err := runMorsels(ctx, s, morsels, false, func(mi int, _ *Context, src *csiBatchSource) error {
		outs[mi] = drainScanBatches(src)
		return nil
	})
	if err != nil {
		return nil, false, err
	}
	var all []*SlotBatch
	for _, o := range outs {
		all = append(all, o...)
	}
	return &gatherBatchCursor{batches: all}, true, nil
}

// drainScanBatches drains a morsel's batch source into owned,
// compacted batches, charging the same per-batch boundary cost as the
// serial batch leaf. Batch boundaries are preserved, so the charge
// multiset and downstream batch counts match a serial scan exactly.
func drainScanBatches(src *csiBatchSource) []*SlotBatch {
	var out []*SlotBatch
	for {
		b, ok := src.nextCharged()
		if !ok {
			return out
		}
		n := b.Len()
		kinds := make([]value.Kind, len(b.Cols))
		for i, c := range b.Cols {
			kinds[i] = c.Kind
		}
		ob := vec.NewBatch(kinds)
		for i := 0; i < n; i++ {
			p := b.LiveIndex(i)
			for vi := range b.Cols {
				ob.Cols[vi].AppendFrom(b.Cols[vi], p)
			}
		}
		ob.SetLen(n)
		out = append(out, &SlotBatch{B: ob, Slots: src.slots})
	}
}
