package exec

import (
	"fmt"
	"slices"
	"time"

	"hybriddb/internal/colstore"
	"hybriddb/internal/metrics"
	"hybriddb/internal/plan"
	"hybriddb/internal/value"
	"hybriddb/internal/vclock"
	"hybriddb/internal/vec"
)

// csiBatchSource drives a columnstore scan and applies the pushed-down
// conjuncts vectorized (narrowing the selection vector), charging
// batch-mode CPU rates. It is the engine's batch-mode pipeline leaf.
type csiBatchSource struct {
	ctx     *Context
	s       *plan.Scan
	sc      *colstore.Scanner
	cols    []int // CSI ordinals decoded (NeedCols + hidden uid)
	slots   []int // composite slot per vector, -1 for a uid NeedCols did not ask for
	scratch value.Row
	preds   []batchPred // one per Filter conjunct

	// selPool provides the reusable selection buffers conjunct
	// evaluation ping-pongs between (see vec.SelPool).
	selPool vec.SelPool

	// tn, when non-nil, receives batch counts and rowgroup-elimination
	// stats. When timed is set the source also owns the node's rows,
	// bytes, and time (batch-mode parents consume the source directly,
	// bypassing the per-node cursor wrapper); otherwise the wrapping
	// trace cursor accounts for those.
	tn    *metrics.TraceNode
	timed bool
}

// resolveCSI returns the columnstore index a CSI scan reads.
func resolveCSI(s *plan.Scan) (*colstore.Index, error) {
	if s.Index != nil && s.Index.CSI != nil {
		return s.Index.CSI, nil
	}
	if s.Table.CCI() != nil {
		return s.Table.CCI(), nil
	}
	return nil, fmt.Errorf("exec: %s has no columnstore", s.Table.Name)
}

// newCSIBatchSource builds the batch pipeline leaf for a CSI scan of the
// whole index (runMorsels re-aims it at one morsel).
func newCSIBatchSource(ctx *Context, s *plan.Scan) (*csiBatchSource, error) {
	idx, err := resolveCSI(s)
	if err != nil {
		return nil, err
	}
	need := s.NeedCols
	if need == nil {
		need = make([]int, s.Table.Schema.Len())
		for i := range need {
			need[i] = i
		}
	}
	cols := append([]int(nil), need...)
	if uidCol := s.Table.UIDColumn(); !slices.Contains(cols, uidCol) {
		cols = append(cols, uidCol)
	}
	// Pushed predicates: the scanner owns them end to end (kernel or
	// naive fallback), so they are not re-applied here.
	spec := colstore.ScanSpec{Cols: cols, PruneCol: -1, Preds: s.Push}
	if s.SeekCol >= 0 && (!s.Lo.Unbounded || !s.Hi.Unbounded) {
		spec.PruneCol = s.SeekCol
		if !s.Lo.Unbounded {
			spec.Lo = s.Lo.Val
		}
		if !s.Hi.Unbounded {
			spec.Hi = s.Hi.Val
		}
	}
	src := &csiBatchSource{
		ctx:     ctx,
		s:       s,
		sc:      idx.NewScanner(ctx.Tr, spec),
		cols:    cols,
		slots:   make([]int, len(cols)),
		scratch: make(value.Row, ctx.TotalSlots),
	}
	for i, c := range cols {
		src.slots[i] = -1
		if i < len(need) {
			src.slots[i] = s.SlotBase + c
		}
	}
	for _, cond := range s.Filter {
		src.preds = append(src.preds, newBatchPred(cond, src.slots))
	}
	return src, nil
}

// next returns the next batch with the scan's filters applied to its
// selection vector, or nil at the end.
func (s *csiBatchSource) next() (*vec.Batch, bool) {
	m := s.ctx.Tr.Model
	var b0 int64
	var t0 time.Duration
	if s.tn != nil && s.timed {
		b0, t0 = s.ctx.Tr.BytesRead, s.ctx.Tr.ExecTime()
	}
	for s.sc.Next() {
		b := s.sc.Batch()
		for k := range s.preds {
			n := b.Len()
			if n == 0 {
				break
			}
			s.ctx.Tr.ChargeParallelCPU(vclock.CPU(int64(n), m.BatchCPU), 1.0)
			s.preds[k].narrow(b, s.scratch, &s.selPool)
		}
		if b.Len() > 0 {
			s.observe(b.Len(), b0, t0)
			return b, true
		}
	}
	s.observe(0, b0, t0)
	return nil, false
}

// nextCharged is next plus the composite-row boundary cost every
// consumer that maps the batch's vectors onto row slots pays, one
// charge per batch.
func (s *csiBatchSource) nextCharged() (*vec.Batch, bool) {
	b, ok := s.next()
	if ok {
		s.ctx.Tr.ChargeParallelCPU(vclock.CPU(int64(b.Len()), s.ctx.Tr.Model.RowCPU/4), 1.0)
	}
	return b, ok
}

// slotBatch maps batch b of the source onto composite-row slots.
func (s *csiBatchSource) slotBatch(b *vec.Batch) SlotBatch {
	return SlotBatch{B: b, Slots: s.slots, Width: s.ctx.TotalSlots}
}

// observe records per-batch trace stats and keeps the node's rowgroup
// elimination attributes in sync with the scanner.
func (s *csiBatchSource) observe(rows int, b0 int64, t0 time.Duration) {
	if s.tn == nil {
		return
	}
	if rows > 0 {
		s.tn.Batches++
	}
	if s.timed {
		if rows > 0 {
			s.tn.Rows += int64(rows)
		}
		s.tn.BytesRead += s.ctx.Tr.BytesRead - b0
		s.tn.Time += s.ctx.Tr.ExecTime() - t0
	}
	s.tn.SetAttr("rowgroups_scanned", int64(s.sc.GroupsScanned))
	s.tn.SetAttr("rowgroups_pruned", int64(s.sc.GroupsEliminated))
	if s.sc.DeltaRowsScanned > 0 {
		s.tn.SetAttr("delta_rows_scanned", int64(s.sc.DeltaRowsScanned))
		// The modeled extra CPU this scan paid for the uncompacted
		// backlog — the quantity the tuple mover schedules against.
		s.tn.SetAttr("delta_scan_tax", int64(s.sc.DeltaScanTax()))
	}
	if s.sc.KernelBatches > 0 {
		s.tn.SetAttr("kernel_batches", int64(s.sc.KernelBatches))
		s.tn.SetAttr("kernel_rows_in", s.sc.KernelRowsIn)
		s.tn.SetAttr("kernel_rows_out", s.sc.KernelRowsOut)
		s.tn.SetAttr("sel_density", selDensity(s.sc.KernelRowsIn, s.sc.KernelRowsOut))
	}
	if s.sc.FallbackBatches > 0 {
		s.tn.SetAttr("kernel_fallback_batches", int64(s.sc.FallbackBatches))
	}
}

// selDensity is the kernel survival rate in per-mille — an integer so
// the attribute both renders compactly and can be recomputed from the
// summed kernel_rows_in/out after parallel trace nodes are absorbed
// (attrs are merged by summation, which would corrupt a ratio).
func selDensity(in, out int64) int64 {
	if in == 0 {
		return 0
	}
	return out * 1000 / in
}
