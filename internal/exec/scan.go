package exec

import (
	"fmt"

	"hybriddb/internal/btree"
	"hybriddb/internal/heap"
	"hybriddb/internal/plan"
	"hybriddb/internal/sql"
	"hybriddb/internal/value"
	"hybriddb/internal/vclock"
)

// UIDCursor reads a scan row by row and exposes the UID of the last row
// returned — the DML layer uses it to identify target rows. Every scan
// cursor implements it; Next is also the step a query's row-wise scan
// is lifted by. A row Next returns is the caller's to keep and write
// into: it shares no storage with any other row the cursor returns.
type UIDCursor interface {
	Next() (value.Row, bool)
	UID() int64
}

// BuildScan builds a scan cursor: for a query's B+ tree or heap scan,
// and for the DML layer in the engine.
func BuildScan(ctx *Context, s *plan.Scan) (UIDCursor, error) {
	return buildScan(ctx, s, compilePreds(s.Filter))
}

// buildScan builds a scan cursor; filter is s.Filter compiled, which a
// nested-loop join compiles once for all its inner rebinds. A
// columnstore scan compiles its own (newCSIBatchSource).
func buildScan(ctx *Context, s *plan.Scan, filter []func(value.Row) bool) (UIDCursor, error) {
	switch s.Access {
	case plan.AccessHeapScan:
		if s.Table.Heap() == nil {
			return nil, fmt.Errorf("exec: %s has no heap", s.Table.Name)
		}
		return &heapScanCursor{ctx: ctx, s: s, filter: filter, it: s.Table.Heap().NewIter(ctx.Tr)}, nil
	case plan.AccessCSIScan:
		return newCSICursor(ctx, s)
	}
	if err := checkBTreeScan(s); err != nil {
		return nil, err
	}
	return openBTreeScan(ctx, s, filter), nil
}

// checkBTreeScan reports why s cannot be opened as a clustered or
// secondary B+ tree scan.
func checkBTreeScan(s *plan.Scan) error {
	switch s.Access {
	case plan.AccessClusteredScan, plan.AccessClusteredSeek:
		if s.Table.Clustered() == nil {
			return fmt.Errorf("exec: %s has no clustered index", s.Table.Name)
		}
	case plan.AccessSecondarySeek:
		if s.Index == nil || s.Index.Tree == nil {
			return fmt.Errorf("exec: %s: secondary index unavailable", s.Table.Name)
		}
	default:
		return fmt.Errorf("exec: %v is not a B+ tree access", s.Access)
	}
	return nil
}

// openBTreeScan opens a scan checkBTreeScan accepted.
func openBTreeScan(ctx *Context, s *plan.Scan, filter []func(value.Row) bool) UIDCursor {
	if s.Access == plan.AccessSecondarySeek {
		return newSecondaryCursor(ctx, s, filter)
	}
	return newClusteredCursor(ctx, s, filter)
}

// compilePreds compiles conjuncts once per operator build.
func compilePreds(conds []sql.Expr) []func(value.Row) bool {
	preds := make([]func(value.Row) bool, len(conds))
	for i, c := range conds {
		preds[i] = sql.CompilePred(c)
	}
	return preds
}

// passes reports whether the composite row satisfies every compiled
// conjunct.
func passes(preds []func(value.Row) bool, row value.Row) bool {
	for _, p := range preds {
		if !p(row) {
			return false
		}
	}
	return true
}

// spareRow returns the row a scan cursor fills for each stored row it
// reads, allocating it when the last one was handed over: a row the
// filter rejects is refilled (the cursor writes the same slots each
// time), and only a row handed over costs an allocation.
func spareRow(row *value.Row, width int) value.Row {
	if *row == nil {
		*row = make(value.Row, width)
	}
	return *row
}

// heapScanCursor scans a heap file (row mode, sequential reads).
type heapScanCursor struct {
	ctx    *Context
	s      *plan.Scan
	filter []func(value.Row) bool
	it     *heap.Iter
	uid    int64
	spare  value.Row // see spareRow
}

func (c *heapScanCursor) UID() int64 { return c.uid }

func (c *heapScanCursor) Next() (value.Row, bool) {
	m := c.ctx.Tr.Model
	n := c.s.Table.Schema.Len()
	for {
		_, stored, ok := c.it.Next()
		if !ok {
			return nil, false
		}
		c.ctx.Tr.ChargeParallelCPU(vclock.CPU(1, m.RowCPU), 0.9)
		out := spareRow(&c.spare, c.ctx.TotalSlots)
		copy(out[c.s.SlotBase:], stored[:n])
		if !passes(c.filter, out) {
			continue
		}
		c.uid = stored[n].Int()
		c.spare = nil
		return out, true
	}
}

// clusteredCursor scans or seeks the clustered B+ tree.
type clusteredCursor struct {
	ctx    *Context
	s      *plan.Scan
	filter []func(value.Row) bool
	it     *btree.Iterator
	uid    int64
	spare  value.Row
}

func newClusteredCursor(ctx *Context, s *plan.Scan, filter []func(value.Row) bool) *clusteredCursor {
	t := s.Table.Clustered()
	c := &clusteredCursor{ctx: ctx, s: s, filter: filter}
	if s.Access == plan.AccessClusteredSeek && !s.Lo.Unbounded {
		c.it = t.Seek(ctx.Tr, value.Row{s.Lo.Val})
	} else {
		c.it = t.First(ctx.Tr)
	}
	return c
}

func (c *clusteredCursor) UID() int64 { return c.uid }

func (c *clusteredCursor) Next() (value.Row, bool) {
	m := c.ctx.Tr.Model
	for c.it.Valid() {
		key := c.it.Key()
		row := c.it.Row()
		c.it.Next()
		c.ctx.Tr.ChargeParallelCPU(vclock.CPU(1, m.RowCPU), m.BTreeScanEfficiency)
		if c.s.Access == plan.AccessClusteredSeek {
			kv := key[0]
			if !c.s.Lo.Unbounded && !c.s.Lo.Inclusive && value.Compare(kv, c.s.Lo.Val) == 0 {
				continue
			}
			if !c.s.Hi.Unbounded {
				cmp := value.Compare(kv, c.s.Hi.Val)
				if cmp > 0 || (cmp == 0 && !c.s.Hi.Inclusive) {
					return nil, false // past the range: stop
				}
			}
		}
		out := spareRow(&c.spare, c.ctx.TotalSlots)
		copy(out[c.s.SlotBase:], row)
		if !passes(c.filter, out) {
			continue
		}
		c.uid = key[len(key)-1].Int()
		c.spare = nil
		return out, true
	}
	return nil, false
}

// secondaryCursor seeks a secondary B+ tree; when the index does not
// cover the query it fetches the base row per result (key lookup).
type secondaryCursor struct {
	ctx    *Context
	s      *plan.Scan
	filter []func(value.Row) bool
	it     *btree.Iterator
	uid    int64
	spare  value.Row
}

func newSecondaryCursor(ctx *Context, s *plan.Scan, filter []func(value.Row) bool) *secondaryCursor {
	t := s.Index.Tree
	c := &secondaryCursor{ctx: ctx, s: s, filter: filter}
	if !s.Lo.Unbounded {
		c.it = t.Seek(ctx.Tr, value.Row{s.Lo.Val})
	} else {
		c.it = t.First(ctx.Tr)
	}
	return c
}

func (c *secondaryCursor) UID() int64 { return c.uid }

func (c *secondaryCursor) Next() (value.Row, bool) {
	m := c.ctx.Tr.Model
	sec := c.s.Index
	tbl := c.s.Table
	nInc := len(sec.Include)
	for c.it.Valid() {
		key := c.it.Key()
		payload := c.it.Row()
		c.it.Next()
		c.ctx.Tr.ChargeParallelCPU(vclock.CPU(1, m.RowCPU), m.BTreeScanEfficiency)
		kv := key[0]
		if !c.s.Lo.Unbounded && !c.s.Lo.Inclusive && value.Compare(kv, c.s.Lo.Val) == 0 {
			continue
		}
		if !c.s.Hi.Unbounded {
			cmp := value.Compare(kv, c.s.Hi.Val)
			if cmp > 0 || (cmp == 0 && !c.s.Hi.Inclusive) {
				return nil, false
			}
		}
		uid := key[len(key)-1].Int()
		out := spareRow(&c.spare, c.ctx.TotalSlots)
		if c.s.Covered {
			for i, ord := range sec.Keys {
				out[c.s.SlotBase+ord] = key[i]
			}
			for i, ord := range sec.Include {
				out[c.s.SlotBase+ord] = payload[i]
			}
			for i, ord := range tbl.ClusterKeys {
				out[c.s.SlotBase+ord] = payload[nInc+i]
			}
		} else {
			clusterVals := payload[nInc:]
			base, ok := tbl.FetchRow(c.ctx.Tr, value.Row(clusterVals), uid)
			if !ok {
				continue
			}
			copy(out[c.s.SlotBase:], base)
		}
		if !passes(c.filter, out) {
			continue
		}
		c.uid = uid
		c.spare = nil
		return out, true
	}
	return nil, false
}

// csiCursor reads a columnstore scan row by row with UIDs — how DML
// locates its target rows (queries read columnstores through
// batchScanCursor). The scanner charges decode at batch rates and
// filters run vectorized in the batch source; the row conversion
// charges the adapter cost.
type csiCursor struct {
	ctx  *Context
	src  *csiBatchSource
	rows []value.Row
	uids []int64
	pos  int
	uid  int64
}

func newCSICursor(ctx *Context, s *plan.Scan) (UIDCursor, error) {
	src, err := newCSIBatchSource(ctx, s)
	if err != nil {
		return nil, err
	}
	return &csiCursor{ctx: ctx, src: src}, nil
}

func (c *csiCursor) UID() int64 { return c.uid }

func (c *csiCursor) Next() (value.Row, bool) {
	for c.pos >= len(c.rows) {
		b, ok := c.src.nextCharged() // batch-to-row adapter cost
		if !ok {
			return nil, false
		}
		// One backing array per batch (appendRows) instead of one
		// allocation per row. Consumers may retain the rows; only the
		// row headers in c.rows are reused.
		c.rows = (&SlotBatch{B: b, Slots: c.src.slots}).appendRows(c.rows[:0], c.ctx.TotalSlots)
		c.uids, c.pos = c.uids[:0], 0
		for i := 0; i < b.Len(); i++ {
			c.uids = append(c.uids, b.Cols[c.src.uidIdx].I[b.LiveIndex(i)])
		}
	}
	c.uid = c.uids[c.pos]
	c.pos++
	return c.rows[c.pos-1], true
}
