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
// end. A row it returns is the caller's to write into until the next
// call, which may reuse it: a lift packs each row into its vectors
// before it steps again.
type rowStep func() (value.Row, bool)

// buildScan builds a B+ tree or heap scan's row step (a columnstore
// scan is a batch source, newBatchScan).
func buildScan(ctx *Context, s *plan.Scan) (rowStep, error) {
	if err := checkRowScan(s); err != nil {
		return nil, err
	}
	return openRowScan(ctx, s, compilePreds(s.Filter)), nil
}

// checkRowScan reports why s cannot be opened as a row scan.
func checkRowScan(s *plan.Scan) error {
	switch s.Access {
	case plan.AccessHeapScan:
		if s.Table.Heap() == nil {
			return fmt.Errorf("exec: %s has no heap", s.Table.Name)
		}
	case plan.AccessClusteredScan, plan.AccessClusteredSeek:
		if s.Table.Clustered() == nil {
			return fmt.Errorf("exec: %s has no clustered index", s.Table.Name)
		}
	case plan.AccessSecondarySeek:
		if s.Index == nil || s.Index.Tree == nil {
			return fmt.Errorf("exec: %s: secondary index unavailable", s.Table.Name)
		}
		if !s.Covered && s.Table.CCI() != nil {
			return fmt.Errorf("exec: %s: an uncovered seek cannot look rows up in a clustered columnstore", s.Table.Name)
		}
	default:
		return fmt.Errorf("exec: %v is not a row access", s.Access)
	}
	return nil
}

// openRowScan opens a scan checkRowScan accepted; filter is s.Filter
// compiled, which a nested-loop join compiles once for all its inner
// rebinds.
func openRowScan(ctx *Context, s *plan.Scan, filter []func(value.Row) bool) rowStep {
	c := &rowScan{ctx: ctx, s: s, filter: filter, uidSlot: uidSlot(s), out: make(value.Row, ctx.TotalSlots)}
	var t *btree.Tree
	switch s.Access {
	case plan.AccessHeapScan:
		c.heap = s.Table.Heap().NewIter(ctx.Tr)
		return c.next
	case plan.AccessSecondarySeek:
		t = s.Index.Tree
	default:
		t = s.Table.Clustered()
	}
	if s.Access != plan.AccessClusteredScan && !s.Lo.Unbounded {
		c.it = t.Seek(ctx.Tr, value.Row{s.Lo.Val})
	} else {
		c.it = t.First(ctx.Tr)
	}
	return c.next
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

// rowScan reads a heap, the clustered B+ tree or a secondary B+ tree
// one stored row at a time (row mode): each entry read is charged
// RowCPU at the structure's parallel efficiency, checked against the
// seek bounds, copied into the scan's one composite row, filtered, and
// handed over with its UID slot written. The scan writes the same
// slots of that row for every entry.
type rowScan struct {
	ctx     *Context
	s       *plan.Scan
	filter  []func(value.Row) bool
	heap    *heap.Iter      // AccessHeapScan
	it      *btree.Iterator // the B+ tree accesses
	uidSlot int             // see uidSlot
	out     value.Row
}

func (c *rowScan) next() (value.Row, bool) {
	s, tr := c.s, c.ctx.Tr
	for {
		var key, stored value.Row
		eff := tr.Model.BTreeScanEfficiency
		if c.heap != nil {
			var ok bool
			if _, stored, ok = c.heap.Next(); !ok {
				return nil, false
			}
			eff = 0.9
		} else {
			if !c.it.Valid() {
				return nil, false
			}
			key, stored = c.it.Key(), c.it.Row()
			c.it.Next()
		}
		tr.ChargeParallelCPU(vclock.CPU(1, tr.Model.RowCPU), eff)
		if s.Access == plan.AccessClusteredSeek || s.Access == plan.AccessSecondarySeek {
			skip, stop := seekBound(s, key[0])
			if stop {
				return nil, false
			}
			if skip {
				continue
			}
		}
		out := c.out
		uid, ok := c.fill(out[s.SlotBase:], key, stored)
		if !ok || !passes(c.filter, out) {
			continue
		}
		if c.uidSlot >= 0 {
			out[c.uidSlot] = uid
		}
		return out, true
	}
}

// fill writes the table row an entry holds into dst (the row's slots
// from SlotBase on) and returns the row's UID. A heap entry is the row
// with its UID last; a clustered entry is keyed by the cluster key and
// UID. A secondary entry is keyed by the index key and UID, with the
// included and cluster-key columns as payload: it fills a covered row
// itself and otherwise looks the base row up in the heap or clustered B+
// tree (key lookup), reporting false when the base row is gone.
func (c *rowScan) fill(dst, key, stored value.Row) (value.Value, bool) {
	tbl := c.s.Table
	switch c.s.Access {
	case plan.AccessHeapScan:
		n := tbl.Schema.Len()
		copy(dst, stored[:n])
		return stored[n], true
	case plan.AccessSecondarySeek:
		sec, uid := c.s.Index, key[len(key)-1]
		nInc := len(sec.Include)
		if !c.s.Covered {
			base, ok := tbl.FetchRow(c.ctx.Tr, stored[nInc:], uid.Int())
			copy(dst, base)
			return uid, ok
		}
		for i, ord := range sec.Keys {
			dst[ord] = key[i]
		}
		for i, ord := range sec.Include {
			dst[ord] = stored[i]
		}
		for i, ord := range tbl.ClusterKeys {
			dst[ord] = stored[nInc+i]
		}
		return uid, true
	default:
		copy(dst, stored)
		return key[len(key)-1], true
	}
}
