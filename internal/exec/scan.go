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

// UIDCursor is a Cursor that also exposes the UID of the last row
// returned — the DML layer uses it to identify target rows. Every scan
// cursor implements it.
type UIDCursor interface {
	Cursor
	UID() int64
}

// BuildScan exposes scan-cursor construction (with UIDs) for the DML
// layer in the engine.
func BuildScan(ctx *Context, s *plan.Scan) (Cursor, error) { return buildScan(ctx, s) }

func buildScan(ctx *Context, s *plan.Scan) (Cursor, error) {
	switch s.Access {
	case plan.AccessHeapScan:
		if s.Table.Heap() == nil {
			return nil, fmt.Errorf("exec: %s has no heap", s.Table.Name)
		}
		return &heapScanCursor{ctx: ctx, s: s, it: s.Table.Heap().NewIter(ctx.Tr)}, nil
	case plan.AccessClusteredScan, plan.AccessClusteredSeek:
		if s.Table.Clustered() == nil {
			return nil, fmt.Errorf("exec: %s has no clustered index", s.Table.Name)
		}
		return newClusteredCursor(ctx, s), nil
	case plan.AccessSecondarySeek:
		if s.Index == nil || s.Index.Tree == nil {
			return nil, fmt.Errorf("exec: %s: secondary index unavailable", s.Table.Name)
		}
		return newSecondaryCursor(ctx, s), nil
	case plan.AccessCSIScan:
		return newCSICursor(ctx, s)
	}
	return nil, fmt.Errorf("exec: unknown access kind %v", s.Access)
}

// passes evaluates pushed-down conjuncts against the composite row.
func passes(ctx *Context, conds []sql.Expr, row value.Row) bool {
	for _, c := range conds {
		if !sql.Truthy(sql.Eval(c, row)) {
			return false
		}
	}
	return true
}

// heapScanCursor scans a heap file (row mode, sequential reads).
type heapScanCursor struct {
	ctx *Context
	s   *plan.Scan
	it  *heap.Iter
	uid int64
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
		out := make(value.Row, c.ctx.TotalSlots)
		copy(out[c.s.SlotBase:], stored[:n])
		if !passes(c.ctx, c.s.Filter, out) {
			continue
		}
		c.uid = stored[n].Int()
		return out, true
	}
}

// clusteredCursor scans or seeks the clustered B+ tree.
type clusteredCursor struct {
	ctx *Context
	s   *plan.Scan
	it  *btree.Iterator
	uid int64
}

func newClusteredCursor(ctx *Context, s *plan.Scan) *clusteredCursor {
	t := s.Table.Clustered()
	c := &clusteredCursor{ctx: ctx, s: s}
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
		out := make(value.Row, c.ctx.TotalSlots)
		copy(out[c.s.SlotBase:], row)
		if !passes(c.ctx, c.s.Filter, out) {
			continue
		}
		c.uid = key[len(key)-1].Int()
		return out, true
	}
	return nil, false
}

// secondaryCursor seeks a secondary B+ tree; when the index does not
// cover the query it fetches the base row per result (key lookup).
type secondaryCursor struct {
	ctx *Context
	s   *plan.Scan
	it  *btree.Iterator
	uid int64
}

func newSecondaryCursor(ctx *Context, s *plan.Scan) *secondaryCursor {
	t := s.Index.Tree
	c := &secondaryCursor{ctx: ctx, s: s}
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
		out := make(value.Row, c.ctx.TotalSlots)
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
		if !passes(c.ctx, c.s.Filter, out) {
			continue
		}
		c.uid = uid
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
	s    *plan.Scan
	src  *csiBatchSource
	rows []value.Row
	uids []int64
	pos  int
	uid  int64
}

func newCSICursor(ctx *Context, s *plan.Scan) (Cursor, error) {
	src, err := newCSIBatchSource(ctx, s, nil)
	if err != nil {
		return nil, err
	}
	return &csiCursor{ctx: ctx, s: s, src: src}, nil
}

func (c *csiCursor) UID() int64 { return c.uid }

func (c *csiCursor) Next() (value.Row, bool) {
	schemaLen := c.s.Table.Schema.Len()
	for {
		if c.pos < len(c.rows) {
			c.uid = c.uids[c.pos]
			row := c.rows[c.pos]
			c.pos++
			return row, true
		}
		b, ok := c.src.nextCharged() // batch-to-row adapter cost
		if !ok {
			return nil, false
		}
		n := b.Len()
		c.rows, c.uids, c.pos = c.rows[:0], c.uids[:0], 0
		// One backing array per batch (colstore.ScanRows discipline)
		// instead of one allocation per row. Consumers may retain the
		// rows; only the row headers in c.rows are reused.
		backing := make([]value.Value, n*c.ctx.TotalSlots)
		for i := 0; i < n; i++ {
			p := b.LiveIndex(i)
			out := backing[i*c.ctx.TotalSlots : (i+1)*c.ctx.TotalSlots : (i+1)*c.ctx.TotalSlots]
			for vi, ord := range c.src.cols {
				if ord < schemaLen {
					out[c.s.SlotBase+ord] = b.Cols[vi].Value(p)
				}
			}
			c.rows = append(c.rows, out)
			c.uids = append(c.uids, b.Cols[c.src.uidIdx].I[p])
		}
	}
}
