package exec

import (
	"cmp"

	"hybriddb/internal/colstore"
	"hybriddb/internal/plan"
	"hybriddb/internal/sql"
	"hybriddb/internal/value"
	"hybriddb/internal/vclock"
	"hybriddb/internal/vec"
)

// batchFilter evaluates residual conjuncts vectorized: columnar inputs
// have their selection vector narrowed in place (zero copies), row
// inputs are filtered into a fresh row run. Every input row is charged
// RowCPU/2; integer comparisons take a typed-vector fast path that
// skips the composite-row materialization for rows it rejects.
type batchFilter struct {
	ctx     *Context
	in      BatchCursor
	conds   []sql.Expr
	scratch value.Row
	selPool vec.SelPool

	// fast, when classified (against the first columnar batch's slot
	// mapping), holds the vector-comparable conjuncts; ok=false means at
	// least one conjunct needs the generic scratch-row path.
	fast       []fastCond
	fastOK     bool
	classified bool
	out        SlotBatch
}

// fastCond is a column compared with a literal (sql.AsComparison) or
// with another column over integer-backed vectors, evaluated without
// materializing values.
type fastCond struct {
	op  colstore.PredOp
	li  int   // left vector index
	ri  int   // right vector index, -1 when comparing to lit
	lit int64 // literal payload when ri < 0
}

func newBatchFilter(ctx *Context, in BatchCursor, conds []sql.Expr) *batchFilter {
	return &batchFilter{ctx: ctx, in: in, conds: conds, scratch: make(value.Row, ctx.TotalSlots)}
}

// intBacked reports whether a value kind stores its payload in Vec.I.
func intBacked(k value.Kind) bool {
	return k == value.KindInt || k == value.KindDate || k == value.KindBool
}

// slotVec finds the vector index carrying a composite slot.
func slotVec(slots []int, slot int) int {
	for vi, s := range slots {
		if s == slot {
			return vi
		}
	}
	return -1
}

// classify maps every conjunct onto the fast vector path, or reports
// ok=false if any needs generic evaluation. The slot mapping is stable
// across a producer's batches, so this runs once.
func (f *batchFilter) classify(slots []int) {
	f.classified = true
	f.fastOK = true
	for _, cond := range f.conds {
		fc, ok := classifyFast(cond, func(slot int) int { return slotVec(slots, slot) })
		if !ok {
			f.fastOK = false
			return
		}
		f.fast = append(f.fast, fc)
	}
}

// classifyFast maps one conjunct onto the fast vector path; vecOf
// resolves a composite slot to its vector index (negative when the
// batch does not carry it). ok=false means the conjunct needs generic
// evaluation.
func classifyFast(cond sql.Expr, vecOf func(slot int) int) (fastCond, bool) {
	fc := fastCond{ri: -1}
	col, opStr, lit, isLit := sql.AsComparison(cond)
	if isLit {
		if !intBacked(lit.Val.Kind()) {
			return fastCond{}, false
		}
		fc.lit = lit.Val.Int()
	} else {
		bin, _ := cond.(*sql.BinOp)
		if bin == nil {
			return fastCond{}, false
		}
		l, lok := bin.L.(*sql.ColRef)
		r, rok := bin.R.(*sql.ColRef)
		if !lok || !rok || !intBacked(r.Kind) {
			return fastCond{}, false
		}
		col, opStr, fc.ri = l, bin.Op, vecOf(r.Slot)
	}
	op, isCmp := colstore.ParseOp(opStr)
	if !isCmp || !intBacked(col.Kind) {
		return fastCond{}, false
	}
	fc.op, fc.li = op, vecOf(col.Slot)
	return fc, fc.li >= 0 && (isLit || fc.ri >= 0)
}

// eval evaluates the conjunct at live position p.
func (fc fastCond) eval(b *vec.Batch, p int) bool {
	x := b.Cols[fc.li]
	if x.IsNull(p) {
		return false
	}
	xv := x.I[p]
	yv := fc.lit
	if fc.ri >= 0 {
		y := b.Cols[fc.ri]
		if y.IsNull(p) {
			return false
		}
		yv = y.I[p]
	}
	return fc.op.Holds(cmp.Compare(xv, yv))
}

// evalFast evaluates the classified conjuncts at live position p.
func (f *batchFilter) evalFast(b *vec.Batch, p int) bool {
	for _, fc := range f.fast {
		if !fc.eval(b, p) {
			return false
		}
	}
	return true
}

func (f *batchFilter) NextBatch() (*SlotBatch, bool) {
	m := f.ctx.Tr.Model
	for {
		sb, ok := f.in.NextBatch()
		if !ok {
			return nil, false
		}
		n := sb.Len()
		if sb.Rows != nil {
			out := make([]value.Row, 0, n)
			for i := 0; i < n; i++ {
				f.ctx.Tr.ChargeParallelCPU(vclock.CPU(1, m.RowCPU/2), 1.0)
				if passes(f.ctx, f.conds, sb.Rows[i]) {
					out = append(out, sb.Rows[i])
				}
			}
			if len(out) == 0 {
				continue
			}
			f.out = SlotBatch{Rows: out}
			return &f.out, true
		}
		if !f.classified {
			f.classify(sb.Slots)
		}
		sel := f.selPool.Next(n)
		for i := 0; i < n; i++ {
			f.ctx.Tr.ChargeParallelCPU(vclock.CPU(1, m.RowCPU/2), 1.0)
			p := sb.B.LiveIndex(i)
			var keep bool
			if f.fastOK {
				keep = f.evalFast(sb.B, p)
			} else {
				keep = passes(f.ctx, f.conds, sb.evalRow(i, f.scratch))
			}
			if keep {
				sel = append(sel, p)
			}
		}
		if len(sel) == 0 {
			continue
		}
		sb.B.Sel = sel
		return sb, true
	}
}

// batchProject computes the output expressions per batch, emitting
// row-layout batches whose rows are carved from one backing array per
// batch.
type batchProject struct {
	ctx     *Context
	in      BatchCursor
	exprs   []sql.Expr
	scratch value.Row
	out     SlotBatch
}

func newBatchProject(ctx *Context, in BatchCursor, exprs []sql.Expr) *batchProject {
	return &batchProject{ctx: ctx, in: in, exprs: exprs, scratch: make(value.Row, ctx.TotalSlots)}
}

func (p *batchProject) NextBatch() (*SlotBatch, bool) {
	sb, ok := p.in.NextBatch()
	if !ok {
		return nil, false
	}
	m := p.ctx.Tr.Model
	n := sb.Len()
	ne := len(p.exprs)
	backing := make([]value.Value, n*ne)
	rows := make([]value.Row, n)
	for i := 0; i < n; i++ {
		row := sb.evalRow(i, p.scratch)
		p.ctx.Tr.ChargeSerialCPU(vclock.CPU(1, m.RowCPU/4))
		out := backing[i*ne : (i+1)*ne : (i+1)*ne]
		for j, e := range p.exprs {
			out[j] = sql.Eval(e, row)
		}
		rows[i] = out
	}
	p.out = SlotBatch{Rows: rows}
	return &p.out, true
}

// batchTop limits output to N rows at batch granularity. It only runs
// above a blocking operator (bare TOP is a row fringe, see rowFringe),
// so trimming the final batch never leaves charged-but-unconsumed work
// behind: the input was fully drained either way.
type batchTop struct {
	in   BatchCursor
	n    int64
	seen int64
	out  SlotBatch
}

func (t *batchTop) NextBatch() (*SlotBatch, bool) {
	if t.seen >= t.n {
		return nil, false
	}
	sb, ok := t.in.NextBatch()
	if !ok {
		return nil, false
	}
	k := int64(sb.Len())
	rem := t.n - t.seen
	if k <= rem {
		t.seen += k
		return sb, true
	}
	t.seen = t.n
	if sb.Rows != nil {
		t.out = SlotBatch{Rows: sb.Rows[:rem]}
		return &t.out, true
	}
	sel := make([]int, rem)
	for i := range sel {
		sel[i] = sb.B.LiveIndex(i)
	}
	sb.B.Sel = sel
	return sb, true
}

// newBatchSort drains the input into the grant-aware sorter. Columnar
// batches are materialized to composite rows (one backing array per
// batch) as they are added, so memory is accounted per composite row.
func newBatchSort(ctx *Context, in BatchCursor, keys []plan.SortKey) (BatchCursor, error) {
	s := &rowSorter{ctx: ctx, keys: keys}
	for {
		sb, ok := in.NextBatch()
		if !ok {
			break
		}
		for _, r := range sb.materializeRows(ctx.TotalSlots) {
			s.add(r)
		}
	}
	return &rowsBatchCursor{rows: s.finish()}, nil
}

// buildBatchAgg dispatches hash aggregation. Stream aggregation never
// reaches here (it is a row fringe). A batch-mode aggregate directly
// over a columnstore scan consumes the scan's batch source at batch
// rates; anything else aggregates its input at row rates through the
// same aggCore.
func buildBatchAgg(ctx *Context, a *plan.Agg) (BatchCursor, error) {
	if a.BatchMode {
		if scan, ok := a.Input.(*plan.Scan); ok && scan.Access == plan.AccessCSIScan {
			rows, err := aggScanDirectRows(ctx, a, scan)
			if err != nil {
				return nil, err
			}
			return &rowsBatchCursor{rows: rows}, nil
		}
	}
	in, err := buildDrained(ctx, a.Input)
	if err != nil {
		return nil, err
	}
	return newBatchRowRateAgg(ctx, a, in)
}

// newBatchRowRateAgg drains a batch input through the agg core at
// row-mode hash rates: HashCPU+AggCPU per input row.
func newBatchRowRateAgg(ctx *Context, a *plan.Agg, in BatchCursor) (BatchCursor, error) {
	core := newAggCore(ctx, a)
	m := ctx.Tr.Model
	scratch := make(value.Row, ctx.TotalSlots)
	for {
		sb, ok := in.NextBatch()
		if !ok {
			break
		}
		n := sb.Len()
		for i := 0; i < n; i++ {
			ctx.Tr.ChargeParallelCPU(vclock.CPU(1, m.HashCPU+m.AggCPU), 1.0)
			core.add(sb.evalRow(i, scratch))
		}
	}
	return &rowsBatchCursor{rows: core.finish()}, nil
}
