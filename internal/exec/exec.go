// Package exec runs physical plans on one spine: BuildBatch builds
// every plan node into a BatchCursor, and operators pull SlotBatch
// units (typed vectors plus a selection vector, or runs of materialized
// rows) through the tree. Operators whose algorithm is inherently
// row-wise — B+ tree seeks, heap scans, merge and nested-loop joins,
// stream aggregation — keep a row-at-a-time step, read their
// inputs through a rowReader and are put on the spine by a lift (see
// batch.go), so each operator has exactly one implementation. The
// paper's row-mode/batch-mode CPU asymmetry lives in the vclock charges
// the operators issue, not in which Go loop runs;
// testdata/spine_golden.json in the root package pins them. Execute is
// the only entry point: SELECTs and the scans DML locates its target
// rows with (reading the table's hidden UID column) both run through it.
package exec

import (
	"hybriddb/internal/metrics"
	"hybriddb/internal/plan"
	"hybriddb/internal/value"
	"hybriddb/internal/vclock"
)

// Context carries per-query execution state.
type Context struct {
	Tr *vclock.Tracker
	// Grant is the query's working-memory grant in bytes; 0 = unlimited.
	// Sorts and hash aggregates spill when they would exceed it.
	Grant int64
	// TotalSlots is the width of composite rows (sum of FROM schemas).
	TotalSlots int
	// DOP is the plan's degree of parallelism. It parameterizes the
	// virtual-clock simulation (ChargeParallelCPU divides by it) and is
	// deliberately independent of Workers below, so that varying the
	// real worker count never changes the reported virtual metrics.
	DOP int
	// Workers is the number of real goroutines morsel-driven operators
	// may use. <= 1 means serial execution. Parallel operators charge
	// the exact same virtual-clock work as their serial counterparts;
	// Workers only changes wall-clock time.
	Workers int
	// Trace, when non-nil, is the trace node BuildBatch attaches
	// per-operator children to (EXPLAIN ANALYZE). Nil tracing adds zero
	// overhead to the hot path.
	Trace *metrics.TraceNode
	// oneRow is set while building a subtree whose consumer may stop
	// early: buildInput sets it where plan.InputDrained reports an
	// input may be left unfinished, the subtrees optimizer.markNode
	// walks with drained=false. Per-row charges (filter, probe,
	// project, seek) are issued as batches are processed, so an operator
	// built under oneRow hands its consumer one live row per batch and
	// the charges stop exactly where a row-at-a-time pipeline would. It
	// is decided from the plan alone, never by a caller.
	oneRow bool
}

// overGrant reports whether allocating need more bytes would exceed
// the grant.
func (c *Context) overGrant(need int64) bool {
	return c.Grant > 0 && c.Tr.MemInUse()+need > c.Grant
}

// Result is a completed query execution.
type Result struct {
	Columns []string
	Rows    []value.Row
	Metrics vclock.Metrics
}

// RunOptions tune one plan execution.
type RunOptions struct {
	// Trace, when non-nil, receives the per-operator trace tree
	// (EXPLAIN ANALYZE).
	Trace *metrics.TraceNode
	// Workers is the real goroutine budget for morsel-driven parallel
	// operators; <= 1 executes the plan serially.
	Workers int
}

// Execute runs a plan to completion. It is the single executor entry
// point; RunOptions select tracing and real parallelism.
func Execute(tr *vclock.Tracker, root *plan.Root, totalSlots int, opts RunOptions) (*Result, error) {
	ctx := &Context{Tr: tr, Grant: root.MemGrant, TotalSlots: totalSlots,
		DOP: root.DOP, Workers: opts.Workers, Trace: opts.Trace}
	tr.SetDOP(root.DOP)
	res := &Result{Columns: root.Columns}
	cur, err := BuildBatch(ctx, root.Input)
	if err != nil {
		return nil, err
	}
	for {
		sb, ok := cur.NextBatch()
		if !ok {
			break
		}
		res.Rows = sb.appendRows(res.Rows, totalSlots)
	}
	res.Metrics = tr.Snapshot()
	res.Metrics.Rows = int64(len(res.Rows))
	return res, nil
}

// openTrace mirrors plan node n as a child of ctx.Trace and points
// ctx.Trace at it while the node's operator is constructed; done
// charges the construction's byte-read and simulated-time deltas to
// the node and restores ctx.Trace. Untraced, tn is nil and done a no-op.
func openTrace(ctx *Context, n plan.Node) (tn *metrics.TraceNode, done func()) {
	parent := ctx.Trace
	if parent == nil {
		return nil, func() {}
	}
	tn = parent.Child(n.Describe())
	tn.Loops = 1
	ctx.Trace = tn
	b0, t0 := ctx.Tr.BytesRead, ctx.Tr.ExecTime()
	return tn, func() {
		tn.BytesRead += ctx.Tr.BytesRead - b0
		tn.Time += ctx.Tr.ExecTime() - t0
		ctx.Trace = parent
	}
}
