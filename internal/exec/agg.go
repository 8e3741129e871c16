package exec

import (
	"sort"

	"hybriddb/internal/plan"
	"hybriddb/internal/sql"
	"hybriddb/internal/value"
	"hybriddb/internal/vclock"
)

// aggState accumulates one aggregate for one group. DISTINCT
// aggregates only collect the deduplicated value set here; all
// arithmetic happens in finalDistinct over a fixed (encoded-key) fold
// order, so partial states merge by plain set union — the deterministic
// merge that lets DISTINCT plans run morsel-parallel at any worker
// count.
type aggState struct {
	count    int64
	sum      value.Value
	min, max value.Value
	distinct map[string]value.Value
}

func (s *aggState) update(spec *plan.AggSpec, v value.Value) {
	if spec.Func == plan.AggCount && spec.Arg == nil {
		s.count++ // COUNT(*)
		return
	}
	if v.IsNull() {
		return
	}
	if spec.Distinct {
		if s.distinct == nil {
			s.distinct = make(map[string]value.Value)
		}
		s.distinct[string(value.EncodeKey(nil, v))] = v
		return
	}
	s.count++
	switch spec.Func {
	case plan.AggSum, plan.AggAvg:
		if s.sum.IsNull() {
			s.sum = v
		} else {
			s.sum = value.Add(s.sum, v)
		}
	case plan.AggMin:
		if s.min.IsNull() || value.Compare(v, s.min) < 0 {
			s.min = v
		}
	case plan.AggMax:
		if s.max.IsNull() || value.Compare(v, s.max) > 0 {
			s.max = v
		}
	}
}

func (s *aggState) merge(o *aggState, spec *plan.AggSpec) {
	s.count += o.count
	if !o.sum.IsNull() {
		if s.sum.IsNull() {
			s.sum = o.sum
		} else {
			s.sum = value.Add(s.sum, o.sum)
		}
	}
	if !o.min.IsNull() && (s.min.IsNull() || value.Compare(o.min, s.min) < 0) {
		s.min = o.min
	}
	if !o.max.IsNull() && (s.max.IsNull() || value.Compare(o.max, s.max) > 0) {
		s.max = o.max
	}
	for k, v := range o.distinct {
		if s.distinct == nil {
			s.distinct = make(map[string]value.Value)
		}
		s.distinct[k] = v
	}
}

func (s *aggState) final(spec *plan.AggSpec) value.Value {
	if spec.Distinct && spec.Arg != nil {
		return s.finalDistinct(spec)
	}
	switch spec.Func {
	case plan.AggCount:
		return value.NewInt(s.count)
	case plan.AggSum:
		return s.sum
	case plan.AggAvg:
		if s.count == 0 {
			return value.Null
		}
		return value.Div(s.sum, value.NewInt(s.count))
	case plan.AggMin:
		return s.min
	case plan.AggMax:
		return s.max
	}
	return value.Null
}

// finalDistinct folds the deduplicated value set in encoded-key order.
// value.EncodeKey is order-preserving, so the fold runs in value order
// — a fixed order independent of arrival order, morsel assignment, and
// worker count, which makes even float SUM(DISTINCT)/AVG(DISTINCT)
// bit-identical across serial and parallel execution.
func (s *aggState) finalDistinct(spec *plan.AggSpec) value.Value {
	n := len(s.distinct)
	if spec.Func == plan.AggCount {
		return value.NewInt(int64(n))
	}
	if n == 0 {
		return value.Null
	}
	keys := make([]string, 0, n)
	for k := range s.distinct {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	switch spec.Func {
	case plan.AggMin:
		return s.distinct[keys[0]]
	case plan.AggMax:
		return s.distinct[keys[n-1]]
	case plan.AggSum, plan.AggAvg:
		sum := s.distinct[keys[0]]
		for _, k := range keys[1:] {
			sum = value.Add(sum, s.distinct[k])
		}
		if spec.Func == plan.AggAvg {
			return value.Div(sum, value.NewInt(int64(n)))
		}
		return sum
	}
	return value.Null
}

// aggGroup is the per-group accumulator.
type aggGroup struct {
	keys   value.Row
	states []aggState
}

// output is the group's row in the agg layout: group values, then
// aggregate results.
func (g *aggGroup) output(specs []plan.AggSpec) value.Row {
	out := append(make(value.Row, 0, len(g.keys)+len(specs)), g.keys...)
	for i := range specs {
		out = append(out, g.states[i].final(&specs[i]))
	}
	return out
}

// aggCore is the grant-aware hash-aggregation engine shared by the
// scan-direct, row-rate and morsel-partial aggregations. When the hash
// table would exceed the grant it spills partial aggregates to the temp
// device and merges them at the end — the disk-based aggregation the
// paper triggers in Figure 4.
type aggCore struct {
	ctx     *Context
	a       *plan.Agg
	args    []func(value.Row) value.Value
	groups  map[string]*aggGroup
	bytes   int64
	spills  []map[string]*aggGroup
	Spilled bool
	buf     []byte
	// noMem disables grant checks and memory accounting: morsel-partial
	// cores use it so per-morsel duplicates of a group are never charged
	// — the gather re-allocates each merged group once on the query
	// tracker, reproducing the serial build's MemPeak exactly.
	noMem bool
}

func newAggCore(ctx *Context, a *plan.Agg) *aggCore {
	return &aggCore{ctx: ctx, a: a, args: aggArgs(a), groups: make(map[string]*aggGroup)}
}

// aggArgs compiles each aggregate's argument once per operator build
// (nil for COUNT(*)).
func aggArgs(a *plan.Agg) []func(value.Row) value.Value {
	args := make([]func(value.Row) value.Value, len(a.Specs))
	for i := range a.Specs {
		if a.Specs[i].Arg != nil {
			args[i] = sql.Compile(a.Specs[i].Arg)
		}
	}
	return args
}

// foldRow folds one input row into a group's aggregate states.
func foldRow(states []aggState, a *plan.Agg, args []func(value.Row) value.Value, row value.Row) {
	for i := range a.Specs {
		var v value.Value
		if args[i] != nil {
			v = args[i](row)
		}
		states[i].update(&a.Specs[i], v)
	}
}

const groupOverhead = 96

// add folds one input row (in the plan's input layout) into the hash
// table, spilling first if the new group would exceed the grant.
func (c *aggCore) add(row value.Row) {
	c.buf = c.buf[:0]
	for _, slot := range c.a.GroupSlots {
		c.buf = value.EncodeKey(c.buf, row[slot])
	}
	g, ok := c.groups[string(c.buf)]
	if !ok {
		keys := row.Project(c.a.GroupSlots)
		if !c.noMem {
			w := int64(keys.Width() + groupOverhead + 48*len(c.a.Specs))
			if c.ctx.overGrant(w) {
				c.spill()
			}
			c.ctx.Tr.Alloc(w)
			c.bytes += w
		}
		g = &aggGroup{keys: keys, states: make([]aggState, len(c.a.Specs))}
		c.groups[string(c.buf)] = g
	}
	foldRow(g.states, c.a, c.args, row)
}

// spill writes the current partial aggregates to the temp device and
// resets the hash table.
func (c *aggCore) spill() {
	if len(c.groups) == 0 {
		return
	}
	c.Spilled = true
	c.ctx.Tr.ChargeTempWrite(c.bytes)
	c.ctx.Tr.Free(c.bytes)
	c.spills = append(c.spills, c.groups)
	c.groups = make(map[string]*aggGroup)
	c.bytes = 0
}

// finish merges spilled partials and returns the output rows in the
// agg layout (group values, then aggregate results).
func (c *aggCore) finish() []value.Row {
	if len(c.spills) > 0 {
		c.spill() // flush the tail partial
		merged := make(map[string]*aggGroup)
		for _, part := range c.spills {
			// Read the partial back from temp.
			var bytes int64
			for _, g := range part {
				bytes += int64(g.keys.Width() + groupOverhead)
			}
			c.ctx.Tr.ChargeTempRead(bytes)
			for k, g := range part {
				if m, ok := merged[k]; ok {
					for i := range c.a.Specs {
						m.states[i].merge(&g.states[i], &c.a.Specs[i])
					}
				} else {
					merged[k] = g
				}
			}
		}
		c.groups = merged
	}
	// A scalar aggregate (no GROUP BY) over empty input still produces
	// one row: COUNT(*) = 0, other aggregates NULL.
	if len(c.groups) == 0 && len(c.a.GroupSlots) == 0 {
		empty := aggGroup{states: make([]aggState, len(c.a.Specs))}
		return []value.Row{empty.output(c.a.Specs)}
	}
	out := make([]value.Row, 0, len(c.groups))
	for _, g := range c.groups {
		out = append(out, g.output(c.a.Specs))
	}
	// The groups map yields rows in randomized iteration order; sort by
	// the group key tuple so a GROUP BY without ORDER BY returns the
	// same rows in the same order every run and at every DOP (the
	// crosscheck tests compare serial and parallel output row for row).
	// Key tuples are unique, so this is a total order.
	keyLen := len(c.a.GroupSlots)
	sort.Slice(out, func(i, j int) bool {
		for k := 0; k < keyLen; k++ {
			if cmp := value.Compare(out[i][k], out[j][k]); cmp != 0 {
				return cmp < 0
			}
		}
		return false
	})
	c.ctx.Tr.Free(c.bytes)
	c.bytes = 0
	return out
}

// aggSlots narrows the source's slot mapping to the slots the
// aggregation reads — group slots plus aggregate-argument columns — so
// the per-row scratch fill materializes only those values instead of
// every decoded column (late materialization carried through the
// aggregation).
func aggSlots(a *plan.Agg, src *csiBatchSource) []int {
	need := make(map[int]bool)
	for _, s := range a.GroupSlots {
		need[s] = true
	}
	for i := range a.Specs {
		sql.WalkExprs(a.Specs[i].Arg, func(x sql.Expr) {
			if c, ok := x.(*sql.ColRef); ok {
				need[c.Slot] = true
			}
		})
	}
	out := make([]int, len(src.slots))
	for vi, slot := range src.slots {
		out[vi] = -1
		if need[slot] {
			out[vi] = slot
		}
	}
	return out
}

// aggScanDirectRows aggregates a batch-capable scan straight from its
// batch source, charging batch-mode rates (the vectorized aggregation
// that gives columnstores their Figure 4 advantage while the grant
// lasts), and returns the finished output rows. Parallel-marked plans
// take the morsel-partial path at every worker count — the fold
// structure is part of the simulated plan, so the real worker count
// never changes results or metrics.
func aggScanDirectRows(ctx *Context, a *plan.Agg, scan *plan.Scan) ([]value.Row, error) {
	if rows, ok, err := morselScanAggRows(ctx, a, scan); err != nil {
		return nil, err
	} else if ok {
		return rows, nil
	}
	src, err := newCSIBatchSource(ctx, scan)
	if err != nil {
		return nil, err
	}
	if ctx.Trace != nil {
		// The scan never becomes a cursor here (the agg consumes the
		// batch source directly), so it needs its own trace node and
		// owns its rows/bytes/time accounting.
		src.tn = ctx.Trace.Child(scan.Describe())
		src.tn.Loops = 1
		src.timed = true
	}
	core := newAggCore(ctx, a)
	core.addScan(src)
	return core.finish(), nil
}

// addScan folds a columnstore batch source into the hash table at
// batch-mode rates, materializing only the slots the aggregation reads.
func (c *aggCore) addScan(src *csiBatchSource) {
	m := c.ctx.Tr.Model
	scratch := make(value.Row, c.ctx.TotalSlots)
	slots := aggSlots(c.a, src)
	for {
		b, ok := src.next()
		if !ok {
			return
		}
		n := b.Len()
		c.ctx.Tr.ChargeParallelCPU(vclock.CPU(int64(n), (m.BatchCPU*2)+m.BatchCPU), 1.0)
		for i := 0; i < n; i++ {
			c.add(fillRow(b, b.LiveIndex(i), slots, scratch))
		}
	}
}

// streamAggCursor aggregates an input already sorted by the group
// columns with O(1) memory — the execution benefit of B+ tree sort
// order (Section 3.2.2).
type streamAggCursor struct {
	ctx    *Context
	a      *plan.Agg
	args   []func(value.Row) value.Value
	in     *rowReader
	cur    *aggGroup
	curKey []byte
	done   bool
}

func (c *streamAggCursor) next() (value.Row, bool) {
	if c.done {
		return nil, false
	}
	m := c.ctx.Tr.Model
	var buf []byte
	for {
		row, ok := c.in.next()
		if !ok {
			c.done = true
			if c.cur == nil {
				return nil, false
			}
			out := c.emit()
			return out, true
		}
		c.ctx.Tr.ChargeParallelCPU(vclock.CPU(1, m.AggCPU), 1.0)
		buf = buf[:0]
		for _, slot := range c.a.GroupSlots {
			buf = value.EncodeKey(buf, row[slot])
		}
		var ready value.Row
		if c.cur != nil && string(buf) != string(c.curKey) {
			ready = c.emit()
		}
		if c.cur == nil {
			c.cur = &aggGroup{keys: row.Project(c.a.GroupSlots), states: make([]aggState, len(c.a.Specs))}
			c.curKey = append(c.curKey[:0], buf...)
		}
		foldRow(c.cur.states, c.a, c.args, row)
		if ready != nil {
			return ready, true
		}
	}
}

func (c *streamAggCursor) emit() value.Row {
	out := c.cur.output(c.a.Specs)
	c.cur = nil
	return out
}
