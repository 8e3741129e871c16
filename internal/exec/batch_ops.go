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

// batchFilter evaluates residual conjuncts vectorized: each input
// batch has its selection vector narrowed in place (zero copies). Every
// input row is charged RowCPU/2.
type batchFilter struct {
	ctx     *Context
	in      BatchCursor
	conds   []sql.Expr
	preds   []batchPred // built against the first batch's slot mapping
	scratch value.Row
	selPool vec.SelPool
}

func newBatchFilter(ctx *Context, in BatchCursor, conds []sql.Expr) *batchFilter {
	return &batchFilter{ctx: ctx, in: in, conds: conds}
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
		f.ctx.Tr.ChargeParallelRows(int64(sb.Len()), vclock.CPU(1, m.RowCPU/2), 1.0)
		scratch := scratchRow(&f.scratch, sb.Width)
		for k := range f.preds {
			f.preds[k].narrow(sb.B, scratch, &f.selPool)
		}
		if sb.B.Len() == 0 {
			continue
		}
		return sb, true
	}
}

// batchProject computes the output expressions per batch. When every
// expression is a column the input carries, in the kind the Project
// outputs, the output batch is the input's vectors under its selection,
// with no copy. Otherwise each expression is evaluated through a
// scratch row into a vector of its kind, reused batch to batch.
type batchProject struct {
	ctx      *Context
	in       BatchCursor
	exprs    []sql.Expr
	evals    []func(value.Row) value.Value
	carried  []int // per expression, its input vector; see carriedVecs
	resolved bool  // carried is set (slot mappings are stable across a producer's batches)
	scratch  value.Row
	out      SlotBatch
}

func newBatchProject(ctx *Context, in BatchCursor, p *plan.Project) *batchProject {
	bp := &batchProject{ctx: ctx, in: in, exprs: p.Exprs, out: layoutOf(ctx, p).batch()}
	for _, e := range p.Exprs {
		bp.evals = append(bp.evals, sql.Compile(e))
	}
	return bp
}

// carriedVecs returns the input vector each expression is, or nil
// unless every expression is a carried column of the output's kind.
func (p *batchProject) carriedVecs(sb *SlotBatch) []int {
	vis := make([]int, len(p.exprs))
	for j, e := range p.exprs {
		c, ok := e.(*sql.ColRef)
		if !ok {
			return nil
		}
		if vis[j] = slotVec(sb.Slots, c.Slot); vis[j] < 0 || sb.B.Cols[vis[j]].Kind != p.out.B.Cols[j].Kind {
			return nil
		}
	}
	return vis
}

func (p *batchProject) NextBatch() (*SlotBatch, bool) {
	sb, ok := p.in.NextBatch()
	if !ok {
		return nil, false
	}
	m := p.ctx.Tr.Model
	n := sb.Len()
	p.ctx.Tr.ChargeSerialCPU(time.Duration(n) * vclock.CPU(1, m.RowCPU/4))
	if !p.resolved {
		p.carried, p.resolved = p.carriedVecs(sb), true
	}
	out := p.out.B
	if p.carried != nil {
		for j, vi := range p.carried {
			out.Cols[j] = sb.B.Cols[vi]
		}
		out.Sel = sb.B.Sel
		out.SetLen(sb.B.Cap())
		return &p.out, true
	}
	out.Reset()
	for _, v := range out.Cols {
		v.Reserve(n)
	}
	scratch := scratchRow(&p.scratch, sb.Width)
	for i := 0; i < n; i++ {
		row := sb.evalRow(i, scratch)
		for j, e := range p.evals {
			out.Cols[j].Append(e(row))
		}
	}
	out.SetLen(n)
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
	sel := make([]int, rem)
	for i := range sel {
		sel[i] = sb.B.LiveIndex(i)
	}
	sb.B.Sel = sel
	return sb, true
}

// newBatchSort drains the input into the grant-aware sorter. Batches
// are materialized to rows (one backing array per batch) as they are
// added, so memory is accounted per row, and the sorted rows are
// lifted back into vectors of the input's layout.
func newBatchSort(ctx *Context, in BatchCursor, srt *plan.Sort) BatchCursor {
	s := &rowSorter{ctx: ctx, keys: srt.Keys, cmp: compileSortKeys(srt.Keys)}
	var rows []value.Row
	for sb, ok := in.NextBatch(); ok; sb, ok = in.NextBatch() {
		rows = sb.appendRows(rows[:0])
		for _, r := range rows {
			s.add(r)
		}
	}
	return newLift(ctx, rowsStep(s.finish()), layoutOf(ctx, srt))
}
