package exec

import (
	"fmt"

	"hybriddb/internal/metrics"
	"hybriddb/internal/plan"
	"hybriddb/internal/value"
	"hybriddb/internal/vclock"
)

// buildJoin builds the row-wise joins, nested-loop and merge, and lifts
// them onto the spine.
func buildJoin(ctx *Context, j *plan.Join) (BatchCursor, error) {
	switch j.Strategy {
	case plan.JoinNestedLoop:
		// The inner is rebound to a B+ tree seek per outer row, and a
		// rebind cannot report an error: check here that it can be
		// opened.
		inner, ok := j.Inner.(*plan.Scan)
		if !ok || inner.Access == plan.AccessHeapScan {
			return nil, fmt.Errorf("exec: nested loop inner must be a B+ tree scan, got %s", j.Inner.Describe())
		}
		if err := checkRowScan(inner); err != nil {
			return nil, err
		}
		outer, err := buildInput(ctx, j, 0)
		if err != nil {
			return nil, err
		}
		c := &nljCursor{ctx: ctx, j: j, outer: newRowReader(ctx, outer), filter: compilePreds(inner.Filter), scan: *inner}
		if c.scan.Access == plan.AccessClusteredScan {
			c.scan.Access = plan.AccessClusteredSeek
		}
		if ctx.Trace != nil {
			// The inner scan is re-instantiated per outer row, so all
			// instantiations share one trace node with Loops counting
			// the rebinds.
			c.innerTN = ctx.Trace.Child(inner.Describe())
		}
		return newLift(ctx, c.next), nil
	case plan.JoinMerge:
		// Either side may be left unexhausted when the other runs out.
		outer, err := buildInput(ctx, j, 0)
		if err != nil {
			return nil, err
		}
		inner, err := buildInput(ctx, j, 1)
		if err != nil {
			return nil, err
		}
		c := &mergeJoinCursor{ctx: ctx, j: j, left: newRowReader(ctx, outer), right: newRowReader(ctx, inner)}
		return newLift(ctx, c.next), nil
	}
	return nil, fmt.Errorf("exec: %v join is not row-wise", j.Strategy)
}

// keysMatch reports whether a joined composite row satisfies every key
// pair: neither column NULL and the two equal in the pair's kind
// (value.Compare widens mixed numeric kinds to DOUBLE, and −0.0 equals
// +0.0) — the equality the hash join checks on its vectors.
func keysMatch(keys []plan.JoinKey, row value.Row) bool {
	for _, k := range keys {
		l, r := row[k.Left], row[k.Right]
		if l.IsNull() || r.IsNull() || value.Compare(l, r) != 0 {
			return false
		}
	}
	return true
}

// mergeJoinCursor joins two inputs that arrive ordered on their Keys[0]
// columns, buffering only the current run of equal inner keys — the
// O(1)-memory join that B+ tree sort order enables — and checks the
// other pairs per joined row.
type mergeJoinCursor struct {
	ctx *Context
	j   *plan.Join

	left, right *rowReader
	started     bool
	leftRow     value.Row
	leftOK      bool
	rightRow    value.Row
	rightOK     bool

	runKey value.Value // key of the buffered inner run
	run    []value.Row
	runIdx int
}

func (c *mergeJoinCursor) advanceLeft() {
	c.leftRow, c.leftOK = c.left.next()
	if c.leftOK {
		c.ctx.Tr.ChargeParallelCPU(vclock.CPU(1, c.ctx.Tr.Model.RowCPU/4), 0.8)
	}
}

func (c *mergeJoinCursor) advanceRight() {
	c.rightRow, c.rightOK = c.right.next()
	if c.rightOK {
		c.ctx.Tr.ChargeParallelCPU(vclock.CPU(1, c.ctx.Tr.Model.RowCPU/4), 0.8)
	}
}

func (c *mergeJoinCursor) next() (value.Row, bool) {
	if !c.started {
		c.started = true
		c.advanceLeft()
		c.advanceRight()
	}
	ls, rs := c.j.Keys[0].Left, c.j.Keys[0].Right
	for {
		// Emit pending combinations of the current left row with the
		// buffered inner run.
		if c.runIdx < len(c.run) && c.leftOK && !c.runKey.IsNull() &&
			value.Compare(c.leftRow[ls], c.runKey) == 0 {
			out := c.leftRow.Clone()
			for i, v := range c.run[c.runIdx] {
				if !v.IsNull() {
					out[i] = v
				}
			}
			c.runIdx++
			if keysMatch(c.j.Keys[1:], out) {
				return out, true
			}
			continue
		}
		if c.runIdx >= len(c.run) && len(c.run) > 0 && c.leftOK &&
			!c.runKey.IsNull() && value.Compare(c.leftRow[ls], c.runKey) == 0 {
			// Finished the run for this left row; next left row may match
			// the same run.
			c.advanceLeft()
			c.runIdx = 0
			continue
		}
		if !c.leftOK {
			return nil, false
		}
		lk := c.leftRow[ls]
		if lk.IsNull() {
			c.advanceLeft()
			continue
		}
		// Drop a stale run strictly below the current left key.
		if len(c.run) > 0 && value.Compare(c.runKey, lk) < 0 {
			c.run, c.runIdx, c.runKey = c.run[:0], 0, value.Null
		}
		if len(c.run) == 0 {
			// Advance the inner side to the first key >= lk.
			for c.rightOK {
				rk := c.rightRow[rs]
				if rk.IsNull() || value.Compare(rk, lk) < 0 {
					c.advanceRight()
					continue
				}
				break
			}
			if !c.rightOK {
				return nil, false
			}
			rk := c.rightRow[rs]
			if value.Compare(rk, lk) > 0 {
				c.advanceLeft()
				continue
			}
			// Buffer the run of equal inner keys.
			c.runKey = rk
			for c.rightOK && value.Compare(c.rightRow[rs], rk) == 0 {
				c.run = append(c.run, c.rightRow.Clone())
				c.advanceRight()
			}
			c.runIdx = 0
		}
	}
}

// nljCursor is an index nested-loop join: for each outer row it seeks
// the inner scan's index at the outer Keys[0] value and merges the rows
// that also match the other pairs —
// the plan shape the paper's Section 5.3 hybrid examples use (index
// seek + nested loop into fact tables).
type nljCursor struct {
	ctx     *Context
	j       *plan.Join
	outer   *rowReader
	innerTN *metrics.TraceNode // shared across inner rebinds (EXPLAIN ANALYZE)

	filter []func(value.Row) bool // inner.Filter compiled
	// scan is inner as a seek, rebound to each outer key: a rebind
	// starts only once the last one is exhausted, so one copy serves
	// them all.
	scan plan.Scan

	curOuter  value.Row
	innerNext rowStep // the current rebind's scan step; nil between rebinds
}

func (c *nljCursor) next() (value.Row, bool) {
	m := c.ctx.Tr.Model
	for {
		if c.innerNext == nil {
			row, ok := c.outer.next()
			if !ok {
				return nil, false
			}
			c.curOuter = row
			key := row[c.j.Keys[0].Left]
			if key.IsNull() {
				continue
			}
			// Rebind the inner seek with equality bounds at the key.
			c.scan.Lo = plan.Bound{Val: key, Inclusive: true}
			c.scan.Hi = c.scan.Lo
			c.innerNext = openRowScan(c.ctx, &c.scan, c.filter)
			if c.innerTN != nil {
				// Traced on the shared node one row per batch, so each
				// inner row's charges land exactly as it is pulled.
				c.innerTN.Loops++
				traced := &traceBatchCursor{ctx: c.ctx, tn: c.innerTN, in: &lift{step: c.innerNext, limit: 1}}
				c.innerNext = newRowReader(c.ctx, traced).next
			}
		}
		inRow, ok := c.innerNext()
		if !ok {
			c.innerNext = nil
			continue
		}
		c.ctx.Tr.ChargeParallelCPU(vclock.CPU(1, m.RowCPU/2), 0.8)
		// The inner row is the caller's (rowStep) and its slots are
		// disjoint from the outer's: the outer values fill its NULLs.
		for i, v := range c.curOuter {
			if inRow[i].IsNull() {
				inRow[i] = v
			}
		}
		if !keysMatch(c.j.Keys[1:], inRow) {
			continue
		}
		return inRow, true
	}
}
