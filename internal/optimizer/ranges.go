// Package optimizer builds physical plans from bound queries with
// cost-based access-path selection over the hybrid design space —
// heap scans, clustered B+ tree scans/seeks, secondary B+ tree seeks
// (covered or with key lookups), and columnstore scans with segment
// elimination — plus join ordering, row/batch-mode aggregation choice,
// sort-order exploitation, memory grants, and the DOP decision.
//
// The same costing runs in "what-if" mode against hypothetical index
// metadata, which is the API surface the paper adds to SQL Server for
// DTA (Section 4.2).
package optimizer

import (
	"sort"

	"hybriddb/internal/plan"
	"hybriddb/internal/sql"
	"hybriddb/internal/value"
)

// colRange is an inferred sargable range on one table column
// (inclusive bounds; Null + Open = unbounded).
type colRange struct {
	lo, hi         value.Value
	loOpen, hiOpen bool // true if that side is unbounded
	loExcl, hiExcl bool // exclusive bound
}

func newColRange() *colRange { return &colRange{loOpen: true, hiOpen: true} }

// tighten intersects the range with a new bound.
func (r *colRange) tightenLo(v value.Value, excl bool) {
	if r.loOpen || value.Compare(v, r.lo) > 0 || (value.Compare(v, r.lo) == 0 && excl) {
		r.lo, r.loOpen, r.loExcl = v, false, excl
	}
}

func (r *colRange) tightenHi(v value.Value, excl bool) {
	if r.hiOpen || value.Compare(v, r.hi) < 0 || (value.Compare(v, r.hi) == 0 && excl) {
		r.hi, r.hiOpen, r.hiExcl = v, false, excl
	}
}

// bounded reports whether any side is constrained.
func (r *colRange) bounded() bool { return !r.loOpen || !r.hiOpen }

// sortedRangeOrds returns the range map's column ordinals in ascending
// order. Costing must visit ranges in a fixed order: selectivities are
// folded with floating-point multiplication and prune-fraction ties are
// broken first-seen, so map iteration order could flip the chosen plan
// between identical runs.
func sortedRangeOrds(ranges map[int]*colRange) []int {
	ords := make([]int, 0, len(ranges))
	for ord := range ranges {
		ords = append(ords, ord)
	}
	sort.Ints(ords)
	return ords
}

// tableInfo gathers per-table planning facts.
type tableInfo struct {
	idx       int // FROM position
	slotBase  int
	conjuncts []sql.Expr        // single-table conjuncts
	ranges    map[int]*colRange // table ordinal -> inferred range
	needCols  []int             // table ordinals referenced by the query
}

// extractRanges infers sargable ranges from single-table conjuncts of
// the forms col op lit, lit op col, and col BETWEEN lit AND lit.
func extractRanges(conjuncts []sql.Expr, slotBase, ncols int) map[int]*colRange {
	ranges := make(map[int]*colRange)
	get := func(slot int) *colRange {
		ord := slot - slotBase
		if ord < 0 || ord >= ncols {
			return nil
		}
		r, ok := ranges[ord]
		if !ok {
			r = newColRange()
			ranges[ord] = r
		}
		return r
	}
	for _, c := range conjuncts {
		switch n := c.(type) {
		case *sql.BinOp:
			col, op, lit, ok := sargable(n)
			if !ok {
				continue
			}
			r := get(col.Slot)
			if r == nil {
				continue
			}
			switch op {
			case "=":
				r.tightenLo(lit.Val, false)
				r.tightenHi(lit.Val, false)
			case "<":
				r.tightenHi(lit.Val, true)
			case "<=":
				r.tightenHi(lit.Val, false)
			case ">":
				r.tightenLo(lit.Val, true)
			case ">=":
				r.tightenLo(lit.Val, false)
			}
		case *sql.Between:
			if n.Not {
				continue
			}
			col, okC := n.E.(*sql.ColRef)
			lo, okL := n.Lo.(*sql.Lit)
			hi, okH := n.Hi.(*sql.Lit)
			if !okC || !okL || !okH {
				continue
			}
			r := get(col.Slot)
			if r == nil {
				continue
			}
			r.tightenLo(lo.Val, false)
			r.tightenHi(hi.Val, false)
		}
	}
	return ranges
}

// sargable is sql.AsComparison minus <>, which bounds no range.
func sargable(e sql.Expr) (*sql.ColRef, string, *sql.Lit, bool) {
	col, op, lit, ok := sql.AsComparison(e)
	return col, op, lit, ok && op != "<>"
}

// slotsOf returns every composite slot referenced by an expression.
func slotsOf(e sql.Expr) []int {
	var out []int
	sql.WalkExprs(e, func(x sql.Expr) {
		if c, ok := x.(*sql.ColRef); ok {
			out = append(out, c.Slot)
		}
	})
	return out
}

// tableOf maps a slot to the FROM table index given table offsets.
func tableOf(slot int, offsets []int, widths []int) int {
	for i := range offsets {
		if slot >= offsets[i] && slot < offsets[i]+widths[i] {
			return i
		}
	}
	return -1
}

// joinEq is one equijoin predicate between two tables.
type joinEq struct {
	leftTable, rightTable int
	leftSlot, rightSlot   int
	kind                  value.Kind // the comparison's sql.BinOp.CmpKind
	sameKind              bool       // both key columns have that kind
}

// key orients e as a join key pair: Left is the slot of e's table in
// joined (the tree), Right the slot of the table being attached.
func (e joinEq) key(joined map[int]bool) plan.JoinKey {
	if joined[e.leftTable] {
		return plan.JoinKey{Left: e.leftSlot, Right: e.rightSlot, Kind: e.kind}
	}
	return plan.JoinKey{Left: e.rightSlot, Right: e.leftSlot, Kind: e.kind}
}

// classify splits conjuncts into per-table, equijoin, and residual
// multi-table predicates.
func classify(conjuncts []sql.Expr, offsets, widths []int) (perTable map[int][]sql.Expr, joins []joinEq, residual []sql.Expr) {
	perTable = make(map[int][]sql.Expr)
	for _, c := range conjuncts {
		slots := slotsOf(c)
		tset := make(map[int]bool)
		for _, s := range slots {
			tset[tableOf(s, offsets, widths)] = true
		}
		if len(tset) <= 1 {
			ti := 0
			for t := range tset {
				ti = t
			}
			perTable[ti] = append(perTable[ti], c)
			continue
		}
		// Equijoin?
		if b, ok := c.(*sql.BinOp); ok && b.Op == "=" {
			l, lok := b.L.(*sql.ColRef)
			r, rok := b.R.(*sql.ColRef)
			if lok && rok {
				lt := tableOf(l.Slot, offsets, widths)
				rt := tableOf(r.Slot, offsets, widths)
				if lt != rt && lt >= 0 && rt >= 0 {
					joins = append(joins, joinEq{
						leftTable: lt, rightTable: rt,
						leftSlot: l.Slot, rightSlot: r.Slot,
						kind: b.CmpKind, sameKind: l.Kind == r.Kind,
					})
					continue
				}
			}
		}
		residual = append(residual, c)
	}
	return perTable, joins, residual
}
