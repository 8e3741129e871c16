package exec

import (
	"fmt"
	"slices"

	"hybriddb/internal/btree"
	"hybriddb/internal/heap"
	"hybriddb/internal/plan"
	"hybriddb/internal/sql"
	"hybriddb/internal/value"
	"hybriddb/internal/vclock"
)

// rowStep is a row-wise operator's step: the next row, or false at the
// end. A row it returns is the caller's to keep and write into: it
// shares no storage with any other row the step returns.
type rowStep func() (value.Row, bool)

// buildScan builds a B+ tree or heap scan's row step (a columnstore
// scan is a batch source, newBatchScan).
func buildScan(ctx *Context, s *plan.Scan) (rowStep, error) {
	filter := compilePreds(s.Filter)
	if s.Access == plan.AccessHeapScan {
		if s.Table.Heap() == nil {
			return nil, fmt.Errorf("exec: %s has no heap", s.Table.Name)
		}
		c := &heapScanCursor{ctx: ctx, s: s, filter: filter, it: s.Table.Heap().NewIter(ctx.Tr), uidSlot: uidSlot(s)}
		return c.next, nil
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

// openBTreeScan opens a scan checkBTreeScan accepted; filter is
// s.Filter compiled, which a nested-loop join compiles once for all its
// inner rebinds.
func openBTreeScan(ctx *Context, s *plan.Scan, filter []func(value.Row) bool) rowStep {
	if s.Access == plan.AccessSecondarySeek {
		return newSecondaryCursor(ctx, s, filter).next
	}
	return newClusteredCursor(ctx, s, filter).next
}

// uidSlot returns the composite slot a scan writes each row's UID to,
// SlotBase+UIDColumn(), when s.NeedCols asks for the hidden UID column
// (DML locating its target rows), and -1 otherwise.
func uidSlot(s *plan.Scan) int {
	if uid := s.Table.UIDColumn(); slices.Contains(s.NeedCols, uid) {
		return s.SlotBase + uid
	}
	return -1
}

// seekBound places seek key kv against s's bounds the way a range scan
// walks an index: a key equal to an exclusive Lo is skipped, and the
// first key past Hi stops the scan.
func seekBound(s *plan.Scan, kv value.Value) (skip, stop bool) {
	if !s.Lo.Unbounded && !s.Lo.Inclusive && value.Compare(kv, s.Lo.Val) == 0 {
		return true, false
	}
	if !s.Hi.Unbounded {
		cmp := value.Compare(kv, s.Hi.Val)
		return false, cmp > 0 || (cmp == 0 && !s.Hi.Inclusive)
	}
	return false, false
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
	ctx     *Context
	s       *plan.Scan
	filter  []func(value.Row) bool
	it      *heap.Iter
	uidSlot int       // see uidSlot
	spare   value.Row // see spareRow
}

func (c *heapScanCursor) next() (value.Row, bool) {
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
		if c.uidSlot >= 0 {
			out[c.uidSlot] = stored[n]
		}
		c.spare = nil
		return out, true
	}
}

// clusteredCursor scans or seeks the clustered B+ tree.
type clusteredCursor struct {
	ctx     *Context
	s       *plan.Scan
	filter  []func(value.Row) bool
	it      *btree.Iterator
	uidSlot int
	spare   value.Row
}

func newClusteredCursor(ctx *Context, s *plan.Scan, filter []func(value.Row) bool) *clusteredCursor {
	t := s.Table.Clustered()
	c := &clusteredCursor{ctx: ctx, s: s, filter: filter, uidSlot: uidSlot(s)}
	if s.Access == plan.AccessClusteredSeek && !s.Lo.Unbounded {
		c.it = t.Seek(ctx.Tr, value.Row{s.Lo.Val})
	} else {
		c.it = t.First(ctx.Tr)
	}
	return c
}

func (c *clusteredCursor) next() (value.Row, bool) {
	m := c.ctx.Tr.Model
	for c.it.Valid() {
		key := c.it.Key()
		row := c.it.Row()
		c.it.Next()
		c.ctx.Tr.ChargeParallelCPU(vclock.CPU(1, m.RowCPU), m.BTreeScanEfficiency)
		if c.s.Access == plan.AccessClusteredSeek {
			skip, stop := seekBound(c.s, key[0])
			if stop {
				return nil, false
			}
			if skip {
				continue
			}
		}
		out := spareRow(&c.spare, c.ctx.TotalSlots)
		copy(out[c.s.SlotBase:], row)
		if !passes(c.filter, out) {
			continue
		}
		if c.uidSlot >= 0 {
			out[c.uidSlot] = key[len(key)-1]
		}
		c.spare = nil
		return out, true
	}
	return nil, false
}

// secondaryCursor seeks a secondary B+ tree; when the index does not
// cover the query it fetches the base row per result (key lookup).
type secondaryCursor struct {
	ctx     *Context
	s       *plan.Scan
	filter  []func(value.Row) bool
	it      *btree.Iterator
	uidSlot int
	spare   value.Row
}

func newSecondaryCursor(ctx *Context, s *plan.Scan, filter []func(value.Row) bool) *secondaryCursor {
	t := s.Index.Tree
	c := &secondaryCursor{ctx: ctx, s: s, filter: filter, uidSlot: uidSlot(s)}
	if !s.Lo.Unbounded {
		c.it = t.Seek(ctx.Tr, value.Row{s.Lo.Val})
	} else {
		c.it = t.First(ctx.Tr)
	}
	return c
}

func (c *secondaryCursor) next() (value.Row, bool) {
	m := c.ctx.Tr.Model
	sec := c.s.Index
	tbl := c.s.Table
	nInc := len(sec.Include)
	for c.it.Valid() {
		key := c.it.Key()
		payload := c.it.Row()
		c.it.Next()
		c.ctx.Tr.ChargeParallelCPU(vclock.CPU(1, m.RowCPU), m.BTreeScanEfficiency)
		skip, stop := seekBound(c.s, key[0])
		if stop {
			return nil, false
		}
		if skip {
			continue
		}
		uid := key[len(key)-1]
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
			base, ok := tbl.FetchRow(c.ctx.Tr, value.Row(clusterVals), uid.Int())
			if !ok {
				continue
			}
			copy(out[c.s.SlotBase:], base)
		}
		if !passes(c.filter, out) {
			continue
		}
		if c.uidSlot >= 0 {
			out[c.uidSlot] = uid
		}
		c.spare = nil
		return out, true
	}
	return nil, false
}
