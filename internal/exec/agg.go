package exec

import (
	"slices"
	"sort"

	"hybriddb/internal/plan"
	"hybriddb/internal/sql"
	"hybriddb/internal/value"
	"hybriddb/internal/vclock"
	"hybriddb/internal/vec"
)

// aggState accumulates one aggregate for one group. DISTINCT
// aggregates only collect the deduplicated value set here; all
// arithmetic happens in finalDistinct over a fixed (encoded-key) fold
// order, so partial states merge by plain set union — the deterministic
// merge that lets DISTINCT plans run morsel-parallel at any worker
// count.
type aggState struct {
	count    int64
	v        value.Value // the running SUM (of SUM and AVG), MIN or MAX
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
	s.fold(spec, v)
}

// fold folds a non-NULL v into s.v: added for SUM and AVG, kept when it
// sorts first for MIN or last for MAX. COUNT keeps no value.
func (s *aggState) fold(spec *plan.AggSpec, v value.Value) {
	switch {
	case spec.Func == plan.AggCount:
	case s.v.IsNull():
		s.v = v
	case spec.Func == plan.AggSum || spec.Func == plan.AggAvg:
		s.v = value.Add(s.v, v)
	case spec.Func == plan.AggMin && value.Compare(v, s.v) < 0,
		spec.Func == plan.AggMax && value.Compare(v, s.v) > 0:
		s.v = v
	}
}

func (s *aggState) merge(o *aggState, spec *plan.AggSpec) {
	s.count += o.count
	if !o.v.IsNull() {
		s.fold(spec, o.v)
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
	case plan.AggSum, plan.AggMin, plan.AggMax:
		return s.v
	case plan.AggAvg:
		if s.count == 0 {
			return value.Null
		}
		return value.Div(s.v, value.NewInt(s.count))
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

// aggKind is the kind of an aggregate's result, as the binder types the
// call.
func aggKind(spec *plan.AggSpec) value.Kind {
	switch spec.Func {
	case plan.AggCount:
		return value.KindInt
	case plan.AggAvg:
		return value.KindFloat
	}
	return sql.ExprKind(spec.Arg)
}

// aggPart is a set of groups: their keys in a keyTable, their states in
// one slice indexed by group id (group g's at states[g*len(Specs):]).
type aggPart struct {
	tab    *keyTable
	states []aggState
}

// aggCore is the grant-aware hash-aggregation engine shared by the
// scan-direct, row-rate and morsel-partial aggregations. When the hash
// table would exceed the grant it spills partial aggregates to the temp
// device and merges them at the end — the disk-based aggregation the
// paper triggers in Figure 4.
type aggCore struct {
	ctx  *Context
	a    *plan.Agg
	args []func(value.Row) value.Value
	aggPart
	bytes   int64
	spills  []aggPart
	scratch value.Row // see scratchRow
	// noMem disables grant checks and memory accounting: morsel-partial
	// cores use it so per-morsel duplicates of a group are never charged
	// — the gather re-allocates each merged group once on the query
	// tracker, reproducing the serial build's MemPeak exactly.
	noMem bool
}

func newAggCore(ctx *Context, a *plan.Agg) *aggCore {
	return &aggCore{ctx: ctx, a: a, args: aggArgs(a), aggPart: aggPart{tab: newKeyTable(a.GroupKinds)}}
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

// groupBytes is the memory a group keyed at position p of keys is
// charged.
func (c *aggCore) groupBytes(keys []*vec.Vec, p int) int64 {
	return int64(keyWidth(keys, p) + groupOverhead + 48*len(c.a.Specs))
}

// add folds one input batch into the hash table, spilling first when a
// new group would exceed the grant. rowRate charges HashCPU+AggCPU per
// row first; fill lists the slots the aggregate arguments read (nil:
// every slot the batch carries).
func (c *aggCore) add(sb *SlotBatch, rowRate bool, fill []int) error {
	m, ns := c.ctx.Tr.Model, len(c.a.Specs)
	keys, err := batchKeys(sb, c.a.GroupSlots)
	if err != nil {
		return err
	}
	if fill == nil {
		fill = sb.Slots
	}
	if rowRate {
		c.ctx.Tr.ChargeParallelRows(int64(sb.Len()), vclock.CPU(1, m.HashCPU+m.AggCPU), 1.0)
	}
	scratch := scratchRow(&c.scratch, sb.Width)
	for i := 0; i < sb.Len(); i++ {
		p := sb.B.LiveIndex(i)
		row := fillRow(sb.B, p, fill, scratch)
		g, h := c.tab.find(keys, p)
		if g < 0 {
			if !c.noMem {
				w := c.groupBytes(keys, p)
				if c.ctx.overGrant(w) {
					c.spill()
				}
				c.ctx.Tr.Alloc(w)
				c.bytes += w
			}
			g = c.newGroup(keys, p, h)
		}
		foldRow(c.states[int(g)*ns:], c.a, c.args, row)
	}
	return nil
}

// newGroup adds position p of keys as a group with empty states, which
// grow by doubling.
func (c *aggCore) newGroup(keys []*vec.Vec, p int, h uint64) int32 {
	if n, ns := len(c.states), len(c.a.Specs); n+ns > cap(c.states) {
		c.states = append(make([]aggState, 0, 2*n+ns), c.states...)
	}
	c.states = c.states[:len(c.states)+len(c.a.Specs)]
	return c.tab.insert(keys, p, h)
}

// absorb merges a set of groups into the table: a group it lacks is
// added with part's states, one it holds has them merged in.
func (c *aggCore) absorb(part aggPart) {
	ns := len(c.a.Specs)
	for g := 0; g < part.tab.n; g++ {
		src := part.states[g*ns : (g+1)*ns]
		id, h := c.tab.find(part.tab.keys, g)
		if id < 0 {
			id = c.newGroup(part.tab.keys, g, h)
			copy(c.states[int(id)*ns:], src)
			continue
		}
		dst := c.states[int(id)*ns:]
		for i := range c.a.Specs {
			dst[i].merge(&src[i], &c.a.Specs[i])
		}
	}
}

// spill writes the current partial aggregates to the temp device and
// sets them aside under a fresh table.
func (c *aggCore) spill() {
	if c.tab.n == 0 {
		return
	}
	c.ctx.Tr.ChargeTempWrite(c.bytes)
	c.ctx.Tr.Free(c.bytes)
	c.spills = append(c.spills, c.aggPart)
	c.aggPart = aggPart{tab: newKeyTable(c.a.GroupKinds)}
	c.bytes = 0
}

// finish merges spilled partials and writes the groups into out, a
// batch of the agg layout (group values, then aggregate results).
func (c *aggCore) finish(out *vec.Batch) {
	if len(c.spills) > 0 {
		c.spill() // flush the tail partial
		for _, part := range c.spills {
			// Read the partial back from temp.
			var bytes int64
			for g := 0; g < part.tab.n; g++ {
				bytes += int64(keyWidth(part.tab.keys, g) + groupOverhead)
			}
			c.ctx.Tr.ChargeTempRead(bytes)
			c.absorb(part)
		}
	}
	ns, nk := len(c.a.Specs), len(c.a.GroupSlots)
	// A scalar aggregate (no GROUP BY) over empty input still produces
	// one row: COUNT(*) = 0, other aggregates NULL.
	states, n := c.states, c.tab.n
	if n == 0 && nk == 0 {
		states, n = make([]aggState, ns), 1
	}
	// Emit the groups in group key order so a GROUP BY without ORDER BY
	// returns the same rows in the same order every run and at every DOP
	// (the crosscheck tests compare serial and parallel output row for
	// row). Key tuples are unique, so this is a total order.
	order := make([]int, n)
	for g := range order {
		order[g] = g
	}
	slices.SortFunc(order, func(a, b int) int {
		for _, v := range c.tab.keys {
			if cmp := value.Compare(v.Value(a), v.Value(b)); cmp != 0 {
				return cmp
			}
		}
		return 0
	})
	for k, v := range c.tab.keys {
		out.Cols[k].Reserve(len(order))
		for _, g := range order {
			out.Cols[k].AppendFrom(v, g)
		}
	}
	for i := range c.a.Specs {
		col := out.Cols[nk+i]
		col.Reserve(len(order))
		for _, g := range order {
			col.Append(states[g*ns+i].final(&c.a.Specs[i]))
		}
	}
	out.SetLen(len(order))
	c.ctx.Tr.Free(c.bytes)
	c.bytes = 0
}

// aggSlots narrows the source's slot mapping to the aggregate-argument
// columns (the group keys are read from the vectors), so the per-row
// scratch fill materializes only those values instead of every decoded
// column (late materialization carried through the aggregation).
func aggSlots(a *plan.Agg, src *csiBatchSource) []int {
	out := make([]int, len(src.slots))
	for vi := range out {
		out[vi] = -1
	}
	for i := range a.Specs {
		sql.WalkExprs(a.Specs[i].Arg, func(x sql.Expr) {
			if c, ok := x.(*sql.ColRef); ok {
				if vi := slotVec(src.slots, c.Slot); vi >= 0 {
					out[vi] = c.Slot
				}
			}
		})
	}
	return out
}

// buildHashAgg drains the input of a hash aggregation (stream
// aggregation is row-wise, see streamAggCursor) and emits its groups. A
// batch-mode aggregate directly over a columnstore scan consumes the
// scan's batch source at batch-mode rates — the vectorized aggregation
// that gives columnstores their Figure 4 advantage while the grant
// lasts. If the plan is Parallel-marked and the scan decomposes, it
// folds per-morsel partial tables, merged in morsel-index order, at
// every real worker count (inline at Workers<=1): the fold structure is
// part of the simulated plan, so order-sensitive merges — float
// SUM/AVG — and DISTINCT sets produce identical bits at any
// parallelism. Any other input is aggregated at row-mode rates,
// HashCPU+AggCPU per row.
func buildHashAgg(ctx *Context, a *plan.Agg) (BatchCursor, error) {
	core := newAggCore(ctx, a)
	scan, _ := a.Input.(*plan.Scan)
	if scan == nil || !a.BatchMode || scan.Access != plan.AccessCSIScan {
		in, err := buildInput(ctx, a, 0)
		if err != nil {
			return nil, err
		}
		for sb, ok := in.NextBatch(); ok; sb, ok = in.NextBatch() {
			if err := core.add(sb, true, nil); err != nil {
				return nil, err
			}
		}
	} else if _, morsels, ok := morselizableScan(ctx, a.Parallel && scan.Parallel, scan); ok {
		parts := make([]aggPart, len(morsels))
		err := runMorsels(ctx, scan, morsels, true, func(mi int, wctx *Context, src *csiBatchSource) error {
			mc := newAggCore(wctx, a)
			mc.noMem = true
			if err := mc.addScan(src); err != nil {
				return err
			}
			parts[mi] = mc.aggPart
			return nil
		})
		if err != nil {
			return nil, err
		}
		for _, part := range parts {
			core.absorb(part)
		}
		for g := 0; g < core.tab.n; g++ {
			// Each merged group is allocated once on the query tracker
			// (the morsel cores run memory-free), so MemPeak matches the
			// serial build exactly.
			w := core.groupBytes(core.tab.keys, g)
			ctx.Tr.Alloc(w)
			core.bytes += w
		}
	} else {
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
		if err := core.addScan(src); err != nil {
			return nil, err
		}
	}
	out := layoutOf(ctx, a).batch()
	core.finish(out.B)
	return &windowCursor{out: out}, nil
}

// addScan folds a columnstore batch source into the hash table at
// batch-mode rates, materializing only the slots the aggregate
// arguments read.
func (c *aggCore) addScan(src *csiBatchSource) error {
	m := c.ctx.Tr.Model
	fill := aggSlots(c.a, src)
	for {
		b, ok := src.next()
		if !ok {
			return nil
		}
		c.ctx.Tr.ChargeParallelCPU(vclock.CPU(int64(b.Len()), (m.BatchCPU*2)+m.BatchCPU), 1.0)
		sb := src.slotBatch(b)
		if err := c.add(&sb, false, fill); err != nil {
			return err
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
	keys   value.Row // the current group's key, nil before the first row
	states []aggState
	done   bool
}

func (c *streamAggCursor) next() (value.Row, bool) {
	if c.done {
		return nil, false
	}
	m := c.ctx.Tr.Model
	for {
		row, ok := c.in.next()
		if !ok {
			c.done = true
			if c.keys == nil {
				return nil, false
			}
			return c.emit(), true
		}
		c.ctx.Tr.ChargeParallelCPU(vclock.CPU(1, m.AggCPU), 1.0)
		// value.Compare keeps NULLs in one group and −0.0 with +0.0.
		var ready value.Row
		for k, slot := range c.a.GroupSlots {
			if c.keys != nil && value.Compare(c.keys[k], row[slot]) != 0 {
				ready = c.emit() // the group changed
			}
		}
		if c.keys == nil {
			c.keys, c.states = row.Project(c.a.GroupSlots), make([]aggState, len(c.a.Specs))
		}
		foldRow(c.states, c.a, c.args, row)
		if ready != nil {
			return ready, true
		}
	}
}

func (c *streamAggCursor) emit() value.Row {
	out := append(make(value.Row, 0, len(c.keys)+len(c.a.Specs)), c.keys...)
	for i := range c.a.Specs {
		out = append(out, c.states[i].final(&c.a.Specs[i]))
	}
	c.keys = nil
	return out
}
