package optimizer

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"

	"hybriddb/internal/metrics"
	"hybriddb/internal/plan"
	"hybriddb/internal/session"
	"hybriddb/internal/sql"
	"hybriddb/internal/table"
	"hybriddb/internal/vclock"
)

// Process-wide optimizer counters.
var (
	mPlans       = metrics.NewCounter("hybriddb_optimizer_plans_total", "physical plans produced")
	mAccessPaths = metrics.NewCounter("hybriddb_optimizer_access_paths_total", "access-path candidates costed")
)

// Resolver maps table names to physical tables.
type Resolver interface {
	ResolveTable(name string) (*table.Table, bool)
}

// Options configure an optimization pass: the cost model plus the
// statement's exec options, which are declared once (in session, whose
// sessions own their defaults) and embedded here so MemGrant and the
// No* ablation switches reach costing without a copy.
type Options struct {
	// Model supplies the cost constants and device profiles.
	Model *vclock.Model
	session.ExecOptions
	// WhatIf is the paper's what-if input (Section 4.2): per table,
	// metadata-only indexes (Secondary.Hypothetical set) costed after
	// the table's own secondaries as if they existed. The catalog is
	// only read.
	WhatIf map[*table.Table][]*table.Secondary
}

// secondaries lists t's secondary indexes followed by its what-if ones.
func (o Options) secondaries(t *table.Table) []*table.Secondary {
	hyp := o.WhatIf[t]
	if len(hyp) == 0 {
		return t.Secondaries
	}
	return append(t.Secondaries[:len(t.Secondaries):len(t.Secondaries)], hyp...)
}

// Optimize builds the cheapest physical plan for a bound SELECT.
func Optimize(res Resolver, b *sql.BoundSelect, opts Options) (*plan.Root, error) {
	if opts.Model == nil {
		return nil, fmt.Errorf("optimizer: nil cost model")
	}
	tables := make([]*table.Table, len(b.Tables))
	offsets := make([]int, len(b.Tables))
	widths := make([]int, len(b.Tables))
	for i, bt := range b.Tables {
		t, ok := res.ResolveTable(bt.Ref.Table)
		if !ok {
			return nil, fmt.Errorf("optimizer: unknown table %q", bt.Ref.Table)
		}
		tables[i] = t
		offsets[i] = bt.Offset
		widths[i] = bt.Schema.Len()
	}

	perTable, joins, residual := classify(b.Conjuncts, offsets, widths)

	// Needed columns per table: referenced anywhere in the query.
	needed := make(map[int]map[int]bool)
	collect := func(e sql.Expr) {
		for _, slot := range slotsOf(e) {
			ti := tableOf(slot, offsets, widths)
			if ti < 0 {
				continue
			}
			if needed[ti] == nil {
				needed[ti] = make(map[int]bool)
			}
			needed[ti][slot-offsets[ti]] = true
		}
	}
	for _, it := range b.Items {
		collect(it.Expr)
	}
	for _, c := range b.Conjuncts {
		collect(c)
	}
	for _, g := range b.GroupBy {
		collect(g)
	}
	for _, o := range b.OrderBy {
		if o.Expr != nil {
			collect(o.Expr)
		}
	}

	infos := make([]*tableInfo, len(tables))
	for i, t := range tables {
		conj := perTable[i]
		var need []int
		for ord := range needed[i] {
			need = append(need, ord)
		}
		if need == nil {
			need = allOrdinals(t.Schema.Len())
		}
		slices.Sort(need)
		infos[i] = &tableInfo{
			idx:       i,
			slotBase:  offsets[i],
			conjuncts: conj,
			ranges:    extractRanges(conj, offsets[i], t.Schema.Len()),
			needCols:  need,
		}
	}

	var (
		tree     plan.Node
		treeRows float64
		cpuWork  time.Duration
		sorted   bool // output ordered by first table's ClusterKeys[0]
	)
	if len(tables) == 1 {
		cand := bestCandidate(tables[0], infos[0], b, opts)
		tree = cand.scan
		treeRows = cand.outRows
		cpuWork = cand.cpu
		sorted = cand.sorted
		setEst(cand.scan, cand.outRows, cand.cost())
	} else {
		var err error
		tree, treeRows, cpuWork, err = joinPlan(tables, infos, joins, opts)
		if err != nil {
			return nil, err
		}
	}

	if len(residual) > 0 {
		f := &plan.Filter{Input: tree, Conds: residual}
		treeRows *= math.Pow(0.33, float64(len(residual)))
		setEst(f, treeRows, nodeCost(tree)+vclock.CPU(int64(treeRows), opts.Model.RowCPU))
		tree = f
	}

	outExprs := make([]sql.Expr, len(b.Items))
	for i, it := range b.Items {
		outExprs[i] = it.Expr
	}

	if b.Aggregate {
		var err error
		tree, treeRows, outExprs, err = aggPlan(tree, treeRows, b, infos, tables, opts, sorted, &cpuWork)
		if err != nil {
			return nil, err
		}
		proj := &plan.Project{Input: tree, Exprs: outExprs}
		setEst(proj, treeRows, nodeCost(tree))
		tree = proj
		// ORDER BY on aggregate output items.
		if len(b.OrderBy) > 0 {
			keys := make([]plan.SortKey, len(b.OrderBy))
			for i, o := range b.OrderBy {
				keys[i] = plan.SortKey{Expr: &sql.ColRef{Slot: o.Item, Kind: sql.ExprKind(b.Items[o.Item].Expr)}, Desc: o.Desc}
			}
			srt := &plan.Sort{Input: tree, Keys: keys}
			setEst(srt, treeRows, nodeCost(tree)+sortCost(opts, treeRows, 64))
			cpuWork += sortCost(opts, treeRows, 64)
			tree = srt
		}
		if b.Stmt.Top != sql.NoTop {
			top := &plan.Top{Input: tree, N: b.Stmt.Top}
			setEst(top, math.Min(treeRows, float64(b.Stmt.Top)), nodeCost(tree))
			tree = top
		}
	} else {
		// Non-aggregate: Sort (composite layout) -> Top -> Project.
		if len(b.OrderBy) > 0 && !(len(tables) == 1 && orderSatisfied(b, infos[0], tables[0], sorted)) {
			keys := make([]plan.SortKey, len(b.OrderBy))
			for i, o := range b.OrderBy {
				e := o.Expr
				if e == nil {
					e = b.Items[o.Item].Expr
				}
				keys[i] = plan.SortKey{Expr: e, Desc: o.Desc}
			}
			rowW := float64(64)
			srt := &plan.Sort{Input: tree, Keys: keys}
			sc := sortCost(opts, treeRows, rowW)
			setEst(srt, treeRows, nodeCost(tree)+sc)
			cpuWork += sc
			tree = srt
		}
		if b.Stmt.Top != sql.NoTop {
			top := &plan.Top{Input: tree, N: b.Stmt.Top}
			setEst(top, math.Min(treeRows, float64(b.Stmt.Top)), nodeCost(tree))
			tree = top
		}
		proj := &plan.Project{Input: tree, Exprs: outExprs}
		rows, _ := tree.Estimate()
		setEst(proj, rows, nodeCost(tree))
		tree = proj
	}

	root := &plan.Root{Input: tree, MemGrant: opts.MemGrant}
	rows, cost := tree.Estimate()
	root.Rows, root.Cost = rows, cost
	root.DOP = 1
	if cpuWork > opts.Model.ParallelCostThreshold {
		root.DOP = opts.Model.MaxDOP
	}
	markParallel(root)
	for _, it := range b.Items {
		root.Columns = append(root.Columns, it.Alias)
	}
	mPlans.Inc()
	return root, nil
}

// markParallel annotates which operators the executor may run with real
// morsel-driven workers when the plan went parallel (DOP > 1). The
// marking tracks drain guarantees per subtree instead of giving up on
// whole plans: a morsel-driven operator must be guaranteed to run to
// completion in a serial execution too, or the virtual clock would
// diverge between serial and parallel runs. An operator is eligible
// exactly when its consumer drains it fully, which plan.InputDrained
// decides input by input — the rule the executor's one-row rule uses.
func markParallel(root *plan.Root) {
	if root.DOP <= 1 {
		return
	}
	markNode(root.Input, true)
}

// markNode walks the plan with the consumer's drain guarantee: drained
// reports whether this subtree's output is always pulled to exhaustion.
func markNode(n plan.Node, drained bool) {
	for i, c := range n.Children() {
		markNode(c, plan.InputDrained(n, i, drained))
	}
	switch v := n.(type) {
	case *plan.Scan:
		v.Parallel = v.Access == plan.AccessCSIScan && drained
	case *plan.Sort:
		// A sort fed directly by a parallel scan runs morsel-driven
		// itself: per-morsel local sorts merged in morsel-index order.
		sc, ok := v.Input.(*plan.Scan)
		v.Parallel = ok && sc.Parallel
	case *plan.Agg:
		v.Parallel = v.Strategy == plan.AggHash && v.BatchMode
	case *plan.Join:
		// The fused parallel probe streams like the probe side itself.
		v.Parallel = v.Strategy == plan.JoinHash && drained
	}
}

// nodeCost returns a node's cumulative estimated cost.
func nodeCost(n plan.Node) time.Duration {
	_, c := n.Estimate()
	return c
}

func setEst(n plan.Node, rows float64, cost time.Duration) {
	switch node := n.(type) {
	case *plan.Scan:
		node.Rows, node.Cost = rows, cost
	case *plan.Filter:
		node.Rows, node.Cost = rows, cost
	case *plan.Join:
		node.Rows, node.Cost = rows, cost
	case *plan.Agg:
		node.Rows, node.Cost = rows, cost
	case *plan.Project:
		node.Rows, node.Cost = rows, cost
	case *plan.Sort:
		node.Rows, node.Cost = rows, cost
	case *plan.Top:
		node.Rows, node.Cost = rows, cost
	}
}

// sortCost estimates an n log n sort, including spill I/O if the data
// exceeds the memory grant.
func sortCost(opts Options, rows, rowWidth float64) time.Duration {
	if rows < 2 {
		return 0
	}
	m := opts.Model
	comparisons := rows * math.Log2(rows+1)
	c := vclock.CPU(int64(comparisons), m.SortCPU)
	bytes := rows * rowWidth
	if opts.MemGrant > 0 && bytes > float64(opts.MemGrant) {
		c += m.Temp.WriteTime(int64(bytes), 4) + m.Temp.ReadTime(int64(bytes), 4)
	}
	return c
}

// bestCandidate picks the cheapest access path for a single-table
// query, accounting for downstream aggregation and ordering (e.g. a
// clustered scan enables a stream aggregate or avoids a sort).
func bestCandidate(t *table.Table, info *tableInfo, b *sql.BoundSelect, opts Options) accessCand {
	cands := candidates(t, info, opts)
	mAccessPaths.Add(int64(len(cands)))
	total := func(c accessCand) time.Duration { return c.cost() + downstreamCost(t, info, b, opts, &c) }
	return slices.MinFunc(cands, func(x, y accessCand) int { return cmp.Compare(total(x), total(y)) })
}

// downstreamCost estimates aggregation/sort work that depends on the
// access path choice.
func downstreamCost(t *table.Table, info *tableInfo, b *sql.BoundSelect, opts Options, c *accessCand) time.Duration {
	m := opts.Model
	var cost time.Duration
	if b.Aggregate && len(b.GroupBy) > 0 {
		groupOrd := b.GroupBy[0].Slot - info.slotBase
		streamOK := c.sorted && len(t.ClusterKeys) > 0 && t.ClusterKeys[0] == groupOrd && len(b.GroupBy) == 1
		if streamOK {
			cost += vclock.CPU(int64(c.outRows), m.AggCPU)
		} else {
			groups := t.Histogram(groupOrd).Distinct
			perRow := m.HashCPU + m.AggCPU
			if c.scan.BatchMode {
				perRow = m.BatchCPU * 3
			}
			cost += vclock.CPU(int64(c.outRows), perRow)
			bytes := groups * 128
			if opts.MemGrant > 0 && bytes > float64(opts.MemGrant) {
				cost += m.Temp.WriteTime(int64(bytes*4), 8) + m.Temp.ReadTime(int64(bytes*4), 8)
			}
		}
	} else if b.Aggregate {
		// Scalar aggregate: one pass.
		perRow := m.AggCPU
		if c.scan.BatchMode {
			perRow = m.BatchCPU
		}
		cost += vclock.CPU(int64(c.outRows), perRow)
	}
	if !b.Aggregate && len(b.OrderBy) > 0 {
		if !orderSatisfied(b, info, t, c.sorted) {
			cost += sortCost(opts, c.outRows, float64(t.Schema.RowWidth()))
		}
	}
	return cost
}

// orderSatisfied reports whether a sorted scan of t already satisfies
// ORDER BY (single ascending key on the first cluster column).
func orderSatisfied(b *sql.BoundSelect, info *tableInfo, t *table.Table, sorted bool) bool {
	if !sorted || len(b.OrderBy) != 1 || b.OrderBy[0].Desc {
		return false
	}
	e := b.OrderBy[0].Expr
	if e == nil && b.OrderBy[0].Item >= 0 {
		e = b.Items[b.OrderBy[0].Item].Expr
	}
	col, ok := e.(*sql.ColRef)
	return ok && len(t.ClusterKeys) > 0 && col.Slot-info.slotBase == t.ClusterKeys[0]
}

// ChooseDMLScan picks the cheapest access path to locate the rows a
// DML statement targets (all columns needed, single table). The scan
// also reads the hidden UID column, which is added to NeedCols after
// costing so that neither the choice nor its estimate depends on it.
func ChooseDMLScan(t *table.Table, conjuncts []sql.Expr, opts Options) *plan.Scan {
	info := &tableInfo{
		idx:       0,
		slotBase:  0,
		conjuncts: conjuncts,
		ranges:    extractRanges(conjuncts, 0, t.Schema.Len()),
		needCols:  allOrdinals(t.Schema.Len()),
	}
	best := slices.MinFunc(candidates(t, info, opts), func(x, y accessCand) int { return cmp.Compare(x.cost(), y.cost()) })
	setEst(best.scan, best.outRows, best.cost())
	best.scan.NeedCols = append(slices.Clip(best.scan.NeedCols), t.UIDColumn())
	return best.scan
}
