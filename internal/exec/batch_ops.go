package exec

import (
	"cmp"
	"time"

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
// RowCPU/2.
type batchFilter struct {
	ctx     *Context
	in      BatchCursor
	conds   []sql.Expr
	preds   []batchPred // built against the first batch's slot mapping
	scratch value.Row
	selPool vec.SelPool
	out     SlotBatch
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

// batchPred is one conjunct compiled for batches whose vectors carry
// the composite slots in slots. A column compared with a literal
// (sql.AsComparison) or with another column, both over integer-backed
// vectors, compares the typed payloads in place; any other conjunct
// fills the scratch row from the vectors and runs the compiled
// predicate. It is the executor's one predicate constructor: the
// filter operator and the columnstore scan both build theirs here.
type batchPred struct {
	pred   func(value.Row) bool
	slots  []int
	op     colstore.PredOp
	li, ri int   // typed compare: vector indexes, li < 0 when compiled only, ri < 0 against lit
	lit    int64 // literal payload when ri < 0
}

func newBatchPred(cond sql.Expr, slots []int) batchPred {
	bp := batchPred{pred: sql.CompilePred(cond), slots: slots, li: -1, ri: -1}
	col, opStr, lit, isLit := sql.AsComparison(cond)
	if isLit {
		if !intBacked(lit.Val.Kind()) {
			return bp
		}
		bp.lit = lit.Val.Int()
	} else if bin, _ := cond.(*sql.BinOp); bin != nil {
		l, lok := bin.L.(*sql.ColRef)
		r, rok := bin.R.(*sql.ColRef)
		if !lok || !rok || !intBacked(r.Kind) {
			return bp
		}
		if col, opStr, bp.ri = l, bin.Op, slotVec(slots, r.Slot); bp.ri < 0 {
			return bp
		}
	} else {
		return bp
	}
	if op, isCmp := colstore.ParseOp(opStr); isCmp && intBacked(col.Kind) {
		bp.op, bp.li = op, slotVec(slots, col.Slot)
	}
	return bp
}

// holds evaluates the conjunct at live position p of b.
func (bp *batchPred) holds(b *vec.Batch, p int, scratch value.Row) bool {
	if bp.li < 0 {
		return bp.pred(fillRow(b, p, bp.slots, scratch))
	}
	x := b.Cols[bp.li]
	if x.IsNull(p) {
		return false
	}
	yv := bp.lit
	if bp.ri >= 0 {
		y := b.Cols[bp.ri]
		if y.IsNull(p) {
			return false
		}
		yv = y.I[p]
	}
	return bp.op.Holds(cmp.Compare(x.I[p], yv))
}

// narrow drops the rows the conjunct rejects from b's selection.
func (bp *batchPred) narrow(b *vec.Batch, scratch value.Row, pool *vec.SelPool) {
	n := b.Len()
	sel := pool.Next(n)
	for i := 0; i < n; i++ {
		if p := b.LiveIndex(i); bp.holds(b, p, scratch) {
			sel = append(sel, p)
		}
	}
	b.Sel = sel
}

func (f *batchFilter) NextBatch() (*SlotBatch, bool) {
	m := f.ctx.Tr.Model
	for {
		sb, ok := f.in.NextBatch()
		if !ok {
			return nil, false
		}
		if f.preds == nil {
			for _, c := range f.conds {
				f.preds = append(f.preds, newBatchPred(c, sb.Slots))
			}
		}
		n := sb.Len()
		f.ctx.Tr.ChargeParallelRows(int64(n), vclock.CPU(1, m.RowCPU/2), 1.0)
		if sb.Rows != nil {
			out := make([]value.Row, 0, n)
			for i := 0; i < n; i++ {
				if f.rowHolds(sb.Rows[i]) {
					out = append(out, sb.Rows[i])
				}
			}
			if len(out) == 0 {
				continue
			}
			f.out = SlotBatch{Rows: out}
			return &f.out, true
		}
		for k := range f.preds {
			f.preds[k].narrow(sb.B, f.scratch, &f.selPool)
		}
		if sb.B.Len() == 0 {
			continue
		}
		return sb, true
	}
}

// rowHolds applies the compiled conjuncts to a row-layout row.
func (f *batchFilter) rowHolds(row value.Row) bool {
	for k := range f.preds {
		if !f.preds[k].pred(row) {
			return false
		}
	}
	return true
}

// batchProject computes the output expressions per batch, emitting
// row-layout batches whose rows are carved from one backing array per
// batch.
type batchProject struct {
	ctx     *Context
	in      BatchCursor
	exprs   []func(value.Row) value.Value
	scratch value.Row
	out     SlotBatch
}

func newBatchProject(ctx *Context, in BatchCursor, exprs []sql.Expr) *batchProject {
	p := &batchProject{ctx: ctx, in: in, scratch: make(value.Row, ctx.TotalSlots)}
	for _, e := range exprs {
		p.exprs = append(p.exprs, sql.Compile(e))
	}
	return p
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
	p.ctx.Tr.ChargeSerialCPU(time.Duration(n) * vclock.CPU(1, m.RowCPU/4))
	for i := 0; i < n; i++ {
		row := sb.evalRow(i, p.scratch)
		out := backing[i*ne : (i+1)*ne : (i+1)*ne]
		for j, e := range p.exprs {
			out[j] = e(row)
		}
		rows[i] = out
	}
	p.out = SlotBatch{Rows: rows}
	return &p.out, true
}

// batchTop is TOP: it limits output to N rows. Its input is built under
// the one-row rule (plan.InputDrained), so it pulls one row per batch
// and nothing past the N-th row is charged. Trimming a final batch
// keeps it correct should a batch of several rows ever reach it.
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
	s := &rowSorter{ctx: ctx, keys: keys, cmp: compileSortKeys(keys)}
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
