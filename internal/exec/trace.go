package exec

import (
	"hybriddb/internal/metrics"
	"hybriddb/internal/value"
)

// traceCursor wraps an operator's cursor for EXPLAIN ANALYZE: it
// counts the rows the operator emits and accumulates the tracker's
// byte-read and simulated-time deltas across each Next call. Because
// a child's work happens inside its parent's Next, the recorded
// BytesRead and Time are inclusive of the subtree, like the actual
// execution statistics of production engines.
type traceCursor struct {
	ctx *Context
	tn  *metrics.TraceNode
	in  Cursor
}

func (c *traceCursor) Next() (value.Row, bool) {
	b0, t0 := c.ctx.Tr.BytesRead, c.ctx.Tr.ExecTime()
	row, ok := c.in.Next()
	c.tn.BytesRead += c.ctx.Tr.BytesRead - b0
	c.tn.Time += c.ctx.Tr.ExecTime() - t0
	if ok {
		c.tn.Rows++
	}
	return row, ok
}
