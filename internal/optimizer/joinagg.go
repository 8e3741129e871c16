package optimizer

import (
	"fmt"
	"math"
	"time"

	"hybriddb/internal/plan"
	"hybriddb/internal/sql"
	"hybriddb/internal/table"
	"hybriddb/internal/value"
	"hybriddb/internal/vclock"
)

// joinPlan builds a greedy left-deep join tree: start from the table
// with the fewest filtered rows, then repeatedly attach the connected
// table that minimizes the estimated join output, choosing between an
// index nested-loop join and a hash join by cost.
func joinPlan(tables []*table.Table, infos []*tableInfo, joins []joinEq, opts Options) (plan.Node, float64, time.Duration, error) {
	m := opts.Model
	n := len(tables)
	cands := make([]accessCand, n)
	sortedCands := make([]*accessCand, n) // cheapest order-preserving path
	for i := range tables {
		cs := candidates(tables[i], infos[i], opts)
		best := cs[0]
		for ci := range cs {
			c := cs[ci]
			if c.cost() < best.cost() {
				best = c
			}
			if c.sorted && (sortedCands[i] == nil || c.cost() < sortedCands[i].cost()) {
				cc := cs[ci]
				sortedCands[i] = &cc
			}
		}
		cands[i] = best
	}

	// A columnstore scan feeding a row-mode join pays the batch-to-row
	// adapter per output row; fold that into the costs the join search
	// compares so CSI access is not systematically underestimated.
	adapter := func(c *accessCand) time.Duration {
		if c.scan.Access == plan.AccessCSIScan {
			return vclock.CPU(int64(c.outRows), m.RowCPU/4)
		}
		return 0
	}

	// Start with the smallest filtered table.
	start := 0
	for i := 1; i < n; i++ {
		if cands[i].outRows < cands[start].outRows {
			start = i
		}
	}
	joined := map[int]bool{start: true}
	var tree plan.Node = cands[start].scan
	setEst(cands[start].scan, cands[start].outRows, cands[start].cost())
	rows := cands[start].outRows
	work := cands[start].cpu + adapter(&cands[start])
	cost := cands[start].cost() + adapter(&cands[start])
	// Slot the tree's output is currently ordered on (for merge joins):
	// valid when the start scan is a clustered scan/seek.
	treeSortedSlot := -1
	if cands[start].sorted && len(tables[start].ClusterKeys) > 0 {
		treeSortedSlot = infos[start].slotBase + tables[start].ClusterKeys[0]
	}

	used := make([]bool, len(joins))
	for len(joined) < n {
		bestEdge, bestNext := -1, -1
		bestRows := math.MaxFloat64
		for ei, e := range joins {
			if used[ei] {
				continue
			}
			var next int
			switch {
			case joined[e.leftTable] && !joined[e.rightTable]:
				next = e.rightTable
			case joined[e.rightTable] && !joined[e.leftTable]:
				next = e.leftTable
			default:
				continue
			}
			outRows := joinRows(rows, cands[next].outRows, tables, infos, e)
			if outRows < bestRows {
				bestRows, bestEdge, bestNext = outRows, ei, next
			}
		}
		if bestEdge < 0 {
			return nil, 0, 0, fmt.Errorf("optimizer: query requires a cross join (unsupported)")
		}
		e := joins[bestEdge]
		used[bestEdge] = true
		// Keys: the chosen edge first, then every other join predicate
		// now fully bound. Each of those joins bestNext to the tree (an
		// edge between two tree tables was used when the later joined),
		// so it orients as (tree slot, bestNext slot).
		keys := []plan.JoinKey{e.key(joined)}
		for ei, o := range joins {
			if used[ei] {
				continue
			}
			inTables := joined[o.leftTable] || o.leftTable == bestNext
			inTables = inTables && (joined[o.rightTable] || o.rightTable == bestNext)
			if inTables {
				keys = append(keys, o.key(joined))
				used[ei] = true
			}
		}

		outerSlot, innerSlot := keys[0].Left, keys[0].Right
		nextTable := tables[bestNext]
		nextInfo := infos[bestNext]
		innerOrd := innerSlot - nextInfo.slotBase

		// Nested-loop option: seekable index on the inner join column. A
		// seek matches encoded keys, so the key columns must share a kind.
		nlScan, nlPerSeek := nlInner(nextTable, nextInfo, innerOrd, opts)
		nlCost := time.Duration(math.MaxInt64)
		if nlScan != nil && e.sameKind {
			nlCost = time.Duration(rows) * nlPerSeek
		}
		// Hash option: full scan of inner + build/probe (+ batch-to-row
		// adapter if the inner is a columnstore scan).
		hashCost := cands[bestNext].cost() + adapter(&cands[bestNext]) +
			vclock.CPU(int64(rows+cands[bestNext].outRows), m.HashCPU)
		// Merge option: both sides already ordered on the join columns
		// (tree sorted on the outer slot; inner has an order-preserving
		// clustered path on its join column). O(1) memory, one pass.
		mergeCost := time.Duration(math.MaxInt64)
		var mergeInner *accessCand
		if treeSortedSlot == outerSlot && sortedCands[bestNext] != nil &&
			len(nextTable.ClusterKeys) > 0 && nextTable.ClusterKeys[0] == innerOrd {
			mergeInner = sortedCands[bestNext]
			mergeCost = mergeInner.cost() +
				vclock.CPU(int64(rows+mergeInner.outRows), m.RowCPU/4)
		}

		var jn *plan.Join
		if mergeCost < hashCost && mergeCost < nlCost {
			inner := mergeInner.scan
			setEst(inner, mergeInner.outRows, mergeInner.cost())
			jn = &plan.Join{Strategy: plan.JoinMerge, Outer: tree, Inner: inner, Keys: keys}
			cost += mergeCost
			work += mergeCost
			// Merge output stays ordered on the join key.
			treeSortedSlot = outerSlot
		} else if nlCost < hashCost {
			jn = &plan.Join{Strategy: plan.JoinNestedLoop, Outer: tree, Inner: nlScan, Keys: keys}
			cost += nlCost
			work += nlCost
			treeSortedSlot = -1
		} else {
			// Build on the smaller side.
			inner := cands[bestNext].scan
			setEst(inner, cands[bestNext].outRows, cands[bestNext].cost())
			if cands[bestNext].outRows < rows {
				for i, k := range keys {
					keys[i] = plan.JoinKey{Left: k.Right, Right: k.Left, Kind: k.Kind}
				}
				jn = &plan.Join{Strategy: plan.JoinHash, Outer: inner, Inner: tree, Keys: keys}
			} else {
				jn = &plan.Join{Strategy: plan.JoinHash, Outer: tree, Inner: inner, Keys: keys}
			}
			cost += hashCost
			work += hashCost
			treeSortedSlot = -1
		}
		// Each pair after the first halves the estimate; the composite
		// key's NDV is not used.
		rows = bestRows * math.Pow(0.5, float64(len(keys)-1))
		if rows < 1 {
			rows = 1
		}
		setEst(jn, rows, cost)
		tree = jn
		joined[bestNext] = true
	}
	return tree, rows, work, nil
}

// joinRows estimates the output cardinality of an equijoin.
func joinRows(leftRows, rightRows float64, tables []*table.Table, infos []*tableInfo, e joinEq) float64 {
	ld := tables[e.leftTable].Histogram(e.leftSlot - infos[e.leftTable].slotBase).Distinct
	rd := tables[e.rightTable].Histogram(e.rightSlot - infos[e.rightTable].slotBase).Distinct
	d := math.Max(math.Max(ld, rd), 1)
	out := leftRows * rightRows / d
	if out < 1 {
		out = 1
	}
	return out
}

// nlInner builds the inner scan for an index nested-loop join if the
// table has a seekable B+ tree on the join column, returning the scan
// template and the estimated per-seek cost.
func nlInner(t *table.Table, info *tableInfo, joinOrd int, opts Options) (*plan.Scan, time.Duration) {
	m := opts.Model
	matchRows := float64(t.RowCount()) / math.Max(t.Histogram(joinOrd).Distinct, 1)
	perSeek := m.SeekCPU + 3*m.PageCPU + vclock.CPU(int64(matchRows+1), m.RowCPU) +
		m.Data.ReadTime(storage8K, 1)/4 // partial coldness of upper levels

	mk := func(access plan.AccessKind, sec *table.Secondary, covered bool) *plan.Scan {
		return &plan.Scan{
			Table:    t,
			TableIdx: info.idx,
			SlotBase: info.slotBase,
			Access:   access,
			Index:    sec,
			SeekCol:  joinOrd,
			Filter:   info.conjuncts,
			NeedCols: info.needCols,
			Covered:  covered,
		}
	}
	if t.Primary() == table.PrimaryBTree && len(t.ClusterKeys) > 0 && t.ClusterKeys[0] == joinOrd {
		return mk(plan.AccessClusteredSeek, nil, true), perSeek
	}
	for _, sec := range opts.secondaries(t) {
		if sec.Columnstore || len(sec.Keys) == 0 || sec.Keys[0] != joinOrd {
			continue
		}
		covered, ok := seekable(t, sec, info.needCols)
		if !ok {
			continue
		}
		cost := perSeek
		if !covered {
			cost += time.Duration(matchRows+1) * (m.SeekCPU + m.PageCPU)
			cost += time.Duration(matchRows+1) * m.Data.ReadTime(storage8K, 1)
		}
		return mk(plan.AccessSecondarySeek, sec, covered), cost
	}
	return nil, 0
}

const storage8K = 8192

// aggPlan attaches the aggregation operator and rewrites the output
// expressions into the agg layout (group values, then agg results).
func aggPlan(tree plan.Node, treeRows float64, b *sql.BoundSelect, infos []*tableInfo, tables []*table.Table, opts Options, sorted bool, cpuWork *time.Duration) (plan.Node, float64, []sql.Expr, error) {
	m := opts.Model

	// Collect aggregate calls in item order (pointer identity).
	var aggs []*sql.AggCall
	aggIdx := make(map[*sql.AggCall]int)
	for _, it := range b.Items {
		sql.WalkExprs(it.Expr, func(e sql.Expr) {
			if a, ok := e.(*sql.AggCall); ok {
				if _, seen := aggIdx[a]; !seen {
					aggIdx[a] = len(aggs)
					aggs = append(aggs, a)
				}
			}
		})
	}
	groupSlots := make([]int, len(b.GroupBy))
	groupKinds := make([]value.Kind, len(b.GroupBy))
	groupIdx := make(map[int]int)
	for i, g := range b.GroupBy {
		groupSlots[i], groupKinds[i] = g.Slot, g.Kind
		groupIdx[g.Slot] = i
	}
	specs := make([]plan.AggSpec, len(aggs))
	for i, a := range aggs {
		var fn plan.AggFunc
		switch a.Func {
		case "COUNT":
			fn = plan.AggCount
		case "SUM":
			fn = plan.AggSum
		case "AVG":
			fn = plan.AggAvg
		case "MIN":
			fn = plan.AggMin
		case "MAX":
			fn = plan.AggMax
		default:
			return nil, 0, nil, fmt.Errorf("optimizer: unknown aggregate %q", a.Func)
		}
		specs[i] = plan.AggSpec{Func: fn, Arg: a.Arg, Distinct: a.Distinct}
	}

	// Strategy.
	strategy := plan.AggHash
	batch := false
	if scan, ok := tree.(*plan.Scan); ok {
		if scan.Access == plan.AccessCSIScan && scan.BatchMode {
			batch = true
		}
		if sorted && len(tables) == 1 && len(groupSlots) == 1 {
			ord := groupSlots[0] - infos[0].slotBase
			if len(tables[0].ClusterKeys) > 0 && tables[0].ClusterKeys[0] == ord {
				strategy = plan.AggStream
			}
		}
	}

	groups := 1.0
	if len(groupSlots) > 0 {
		groups = 1
		for i, g := range b.GroupBy {
			ti := g.TableIdx
			groups *= math.Max(tables[ti].Histogram(g.Col).Distinct, 1)
			_ = i
		}
		if groups > treeRows {
			groups = math.Max(treeRows, 1)
		}
	}

	agg := &plan.Agg{
		Input:      tree,
		Strategy:   strategy,
		GroupSlots: groupSlots,
		GroupKinds: groupKinds,
		Specs:      specs,
		BatchMode:  batch,
		EstGroups:  groups,
	}
	var aggCost time.Duration
	switch {
	case strategy == plan.AggStream:
		aggCost = vclock.CPU(int64(treeRows), m.AggCPU)
	case batch:
		aggCost = vclock.CPU(int64(treeRows), m.BatchCPU*3)
	default:
		aggCost = vclock.CPU(int64(treeRows), m.HashCPU+m.AggCPU)
	}
	if strategy == plan.AggHash {
		bytes := groups * 128
		if opts.MemGrant > 0 && bytes > float64(opts.MemGrant) {
			aggCost += m.Temp.WriteTime(int64(bytes*4), 8) + m.Temp.ReadTime(int64(bytes*4), 8)
		}
	}
	*cpuWork += aggCost
	setEst(agg, groups, nodeCost(tree)+aggCost)

	// Rewrite output expressions into the agg layout.
	out := make([]sql.Expr, len(b.Items))
	for i, it := range b.Items {
		out[i] = rewriteAgg(it.Expr, groupIdx, aggIdx, len(groupSlots))
	}
	return agg, groups, out, nil
}

// rewriteAgg clones an expression, replacing aggregate calls and group
// columns with references into the agg output layout.
func rewriteAgg(e sql.Expr, groupIdx map[int]int, aggIdx map[*sql.AggCall]int, nGroups int) sql.Expr {
	switch n := e.(type) {
	case *sql.AggCall:
		return &sql.ColRef{Name: n.String(), Slot: nGroups + aggIdx[n], Kind: sql.ExprKind(n)}
	case *sql.ColRef:
		if gi, ok := groupIdx[n.Slot]; ok {
			out := *n
			out.Slot = gi
			return &out
		}
		return n
	}
	ops := sql.Operands(e)
	for i, op := range ops {
		ops[i] = rewriteAgg(op, groupIdx, aggIdx, nGroups)
	}
	return sql.WithOperands(e, ops)
}
