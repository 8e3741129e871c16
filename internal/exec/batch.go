// The batch spine: the executor's one pipeline. Operators pull
// SlotBatch units (typed column vectors plus a selection vector)
// through BatchCursor trees, so the selection vectors produced by the
// columnstore scan kernels flow end-to-end instead of being
// rematerialized at the first row-mode parent — the
// MonetDB/X100-style vectorization behind the paper's batch-mode CPU
// asymmetry. Every operator hands up column vectors: a Project's
// results, an aggregate's groups and a sort's output included.
//
// BatchCursor is the only operator interface, and BuildBatch the only
// builder. A few operators are row-wise by algorithm: B+ tree seeks and
// heap scans, merge and nested-loop joins, and stream aggregation. Each
// keeps a row-at-a-time step, reads its input through a rowReader, and
// is put on the spine by a lift, which packs the step's rows into
// column vectors. Everything else — filter, project, hash join
// build/probe, sort, hash aggregation, TOP — is vectorized. Neither the
// lift nor the reader charges the virtual clock (the columnstore scan's
// batch-to-row boundary cost is charged at the scan leaf).
//
// The one-row rule: virtual charges are issued as a batch is
// processed, so batch granularity would be observable wherever a
// consumer stops early — a TOP, a merge join running off its shorter
// input. plan.InputDrained says which inputs those are, and
// buildInput builds them under Context.oneRow: every vectorized
// operator is wrapped in a oneRowCursor and row-wise ones are lifted
// one row per batch, until a blocking operator (sort, hash aggregate,
// hash-join build) drains its input regardless and lifts the rule
// beneath it.
//
// Ownership: every batch is borrowed — valid only until the producer's
// next NextBatch call (producers reuse vectors and selection buffers;
// see vec.SelPool), and a producer that reuses its output batch resets
// its selection on every call, because consumers narrow a batch by
// overwriting Sel. Blocking consumers copy out; Execute materializes
// each result row once. The bufalias analyzer enforces that reused
// batch buffers do not escape their owner except through NextBatch
// itself.
package exec

import (
	"fmt"
	"slices"

	"hybriddb/internal/metrics"
	"hybriddb/internal/plan"
	"hybriddb/internal/sql"
	"hybriddb/internal/value"
	"hybriddb/internal/vec"
)

// BatchCursor produces SlotBatches. A returned batch is valid until
// the next NextBatch call on the same cursor.
type BatchCursor interface {
	NextBatch() (*SlotBatch, bool)
}

// SlotBatch is the unit of batch-mode data flow: a vec.Batch whose
// vectors are mapped to the slots of the rows it stands for. Width is
// that row width: the composite row (Context.TotalSlots) below a
// Project, the Project's expressions or the aggregate's groups and
// results above it. A slot no vector carries reads NULL.
type SlotBatch struct {
	B     *vec.Batch
	Slots []int // per vector: its slot, or -1 (a hidden uid not asked for)
	Width int
}

// Len returns the number of live rows.
func (sb *SlotBatch) Len() int { return sb.B.Len() }

// evalRow returns scratch, a row of sb.Width, with live ordinal i's
// carried slots filled, for expression evaluation. Slots no vector
// carries must already be NULL in scratch (they stay untouched).
func (sb *SlotBatch) evalRow(i int, scratch value.Row) value.Row {
	return fillRow(sb.B, sb.B.LiveIndex(i), sb.Slots, scratch)
}

// scratchRow returns *row, made anew when its width is not width: the
// row an operator fills a batch's rows into for compiled expressions,
// sized from the batch it reads.
func scratchRow(row *value.Row, width int) value.Row {
	if len(*row) != width {
		*row = make(value.Row, width)
	}
	return *row
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
// materialized as a row: populated slots at their value widths plus one
// NULL-marker byte per empty slot.
func (sb *SlotBatch) rowWidth(i int) int {
	p := sb.B.LiveIndex(i)
	w, populated := 0, 0
	for vi, slot := range sb.Slots {
		if slot < 0 {
			continue
		}
		populated++
		w += sb.B.Cols[vi].ValueWidth(p)
	}
	return w + (sb.Width - populated)
}

// appendRows appends the batch's live rows to dst as rows of sb.Width,
// carved from one backing array (the allocation discipline of
// colstore.ScanRows). Consumers may retain the rows; only dst's row
// headers are the caller's to reuse.
func (sb *SlotBatch) appendRows(dst []value.Row) []value.Row {
	n, w := sb.B.Len(), sb.Width
	dst = slices.Grow(dst, n)
	backing := make([]value.Value, n*w)
	for i := 0; i < n; i++ {
		p := sb.B.LiveIndex(i)
		row := backing[i*w : (i+1)*w : (i+1)*w]
		for vi, slot := range sb.Slots {
			if slot >= 0 {
				row[slot] = sb.B.Cols[vi].Value(p)
			}
		}
		dst = append(dst, row)
	}
	return dst
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

// buildInput builds input i of n (n.Children()[i]) under the one-row
// rule exactly when plan.InputDrained says it may be left unfinished —
// the rule optimizer.markParallel allows morsels by. Every operator
// builds its inputs through it.
func buildInput(ctx *Context, n plan.Node, i int) (BatchCursor, error) {
	saved := ctx.oneRow
	ctx.oneRow = !plan.InputDrained(n, i, !saved)
	cur, err := BuildBatch(ctx, n.Children()[i])
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
		return newLift(ctx, step, layoutOf(ctx, node)), nil
	case *plan.Filter:
		in, err := buildInput(ctx, node, 0)
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
			in, err := buildInput(ctx, node, 0)
			if err != nil {
				return nil, err
			}
			c := &streamAggCursor{ctx: ctx, a: node, args: aggArgs(node), in: &rowReader{in: in}}
			return newLift(ctx, c.next, layoutOf(ctx, node)), nil
		}
		return buildHashAgg(ctx, node)
	case *plan.Project:
		in, err := buildInput(ctx, node, 0)
		if err != nil {
			return nil, err
		}
		return newBatchProject(ctx, in, node), nil
	case *plan.Sort:
		in, err := buildInput(ctx, node, 0)
		if err != nil {
			return nil, err
		}
		return newBatchSort(ctx, in, node), nil
	case *plan.Top:
		in, err := buildInput(ctx, node, 0)
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

// layout is the shape of the rows an operator packs into vectors: the
// slot and kind of each vector, and the row width.
type layout struct {
	slots []int
	kinds []value.Kind
	width int
}

// layoutOf returns the layout of node n's output rows: a Project's
// expressions, an aggregate's group columns then results, and otherwise
// the composite row, every column of the scans beneath n (a requested
// UID included) at its slot.
func layoutOf(ctx *Context, n plan.Node) layout {
	var l layout
	switch n := n.(type) {
	case *plan.Project:
		for _, e := range n.Exprs {
			l.kinds = append(l.kinds, sql.ExprKind(e))
		}
	case *plan.Agg:
		l.kinds = append(l.kinds, n.GroupKinds...)
		for i := range n.Specs {
			l.kinds = append(l.kinds, aggKind(&n.Specs[i]))
		}
	case *plan.Filter, *plan.Sort, *plan.Top:
		return layoutOf(ctx, n.Children()[0])
	default:
		plan.Walk(n, func(m plan.Node) {
			if s, ok := m.(*plan.Scan); ok {
				for ord, col := range s.Table.Schema.Columns {
					l.slots = append(l.slots, s.SlotBase+ord)
					l.kinds = append(l.kinds, col.Kind)
				}
				if uid := uidSlot(s); uid >= 0 {
					l.slots = append(l.slots, uid)
					l.kinds = append(l.kinds, value.KindInt)
				}
			}
		})
		l.width = ctx.TotalSlots
		return l
	}
	l.width = len(l.kinds)
	for i := range l.kinds {
		l.slots = append(l.slots, i)
	}
	return l
}

// batch returns an empty batch of the layout, its vectors unsized.
func (l layout) batch() SlotBatch {
	b := &vec.Batch{Cols: make([]*vec.Vec, len(l.kinds))}
	for i, k := range l.kinds {
		b.Cols[i] = &vec.Vec{Kind: k}
	}
	return SlotBatch{B: b, Slots: l.slots, Width: l.width}
}

// lift puts a row-wise operator on the spine: it calls the operator's
// row step until it holds limit rows (vec.BatchSize, or one under the
// one-row rule) and packs them into its output batch, whose vectors it
// reuses. The step materializes each row itself, so lifting is free of
// virtual-clock charges. done latches end of stream: a step is never
// called again after it reports exhaustion (a bounded seek would read
// and charge one more row past its range).
type lift struct {
	step  rowStep
	limit int
	out   SlotBatch
	done  bool
}

// newLift lifts step, whose rows have layout l.
func newLift(ctx *Context, step rowStep, l layout) *lift {
	lf := &lift{step: step, limit: vec.BatchSize, out: l.batch()}
	if ctx.oneRow {
		lf.limit = 1
	}
	return lf
}

func (l *lift) NextBatch() (*SlotBatch, bool) {
	if l.done {
		return nil, false
	}
	b := l.out.B
	b.Reset()
	n := 0
	for ; n < l.limit; n++ {
		r, ok := l.step()
		if !ok {
			l.done = true
			break
		}
		for vi, slot := range l.out.Slots {
			b.Cols[vi].Append(r[slot])
		}
	}
	if n == 0 {
		return nil, false
	}
	b.SetLen(n)
	return &l.out, true
}

// rowsStep steps through materialized rows (a sort's output).
func rowsStep(rows []value.Row) rowStep {
	return func() (value.Row, bool) {
		if len(rows) == 0 {
			return nil, false
		}
		r := rows[0]
		rows = rows[1:]
		return r, true
	}
}

// rowReader is how a row-wise operator reads its input: one row at a
// time, pulling the next batch only when the last is used up. A batch's
// rows are carved from one backing array per batch (appendRows) and
// only the row headers are reused, so callers may retain what next
// returns. It is charge-free like the lift.
type rowReader struct {
	in   BatchCursor
	rows []value.Row
	pos  int
}

func (r *rowReader) next() (value.Row, bool) {
	for r.pos >= len(r.rows) {
		sb, ok := r.in.NextBatch()
		if !ok {
			return nil, false
		}
		r.rows, r.pos = sb.appendRows(r.rows[:0]), 0
	}
	row := r.rows[r.pos]
	r.pos++
	return row, true
}

// oneRowCursor re-slices its input's batches into batches of one live
// row, so that whatever consumes them charges row by row and an early
// stop leaves nothing charged but unconsumed. Consumers narrow a
// batch by overwriting its Sel (batchFilter, batchTop), so the
// live positions are copied out and each row is handed over through a
// private header that shares only the vectors with the input batch.
type oneRowCursor struct {
	in   BatchCursor
	live []int // the input batch's live positions
	pos  int
	view vec.Batch
	out  SlotBatch
}

func (c *oneRowCursor) NextBatch() (*SlotBatch, bool) {
	for c.pos >= len(c.live) {
		sb, ok := c.in.NextBatch()
		if !ok {
			return nil, false
		}
		c.live, c.pos = c.live[:0], 0
		for i := 0; i < sb.Len(); i++ {
			c.live = append(c.live, sb.B.LiveIndex(i))
		}
		c.view = *sb.B
		c.out = SlotBatch{B: &c.view, Slots: sb.Slots, Width: sb.Width}
	}
	i := c.pos
	c.pos++
	c.view.Sel = c.live[i : i+1 : i+1]
	return &c.out, true
}

// windowCursor emits a materialized batch (an aggregate's groups) in
// windows of vec.BatchSize rows, each a selection over it.
type windowCursor struct {
	out SlotBatch
	sel []int
	pos int
}

func (c *windowCursor) NextBatch() (*SlotBatch, bool) {
	n := c.out.B.Cap()
	if c.pos >= n {
		return nil, false
	}
	end := min(c.pos+vec.BatchSize, n)
	c.sel = c.sel[:0]
	for p := c.pos; p < end; p++ {
		c.sel = append(c.sel, p)
	}
	c.out.B.Sel, c.pos = c.sel, end
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
	c.out = c.src.slotBatch(b)
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
		sb := src.slotBatch(ob)
		out = append(out, &sb)
	}
}
