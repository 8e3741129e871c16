package exec

import (
	"slices"
	"testing"

	"hybriddb/internal/sql"
	"hybriddb/internal/value"
	"hybriddb/internal/vec"
)

// adapterInput is a two-slot batch stream mixing the layouts a rowReader
// or a oneRowCursor can meet: a columnar batch with a selection (live rows 1, 3, 4 of
// five), a fully live columnar batch, and a row-layout run. Slot 0
// counts 0..9 over the live rows; slot 1 is the row's parity.
func adapterInput() (*gatherBatchCursor, int) {
	kinds := []value.Kind{value.KindInt, value.KindInt}
	row := func(a int64) value.Row { return value.Row{value.NewInt(a), value.NewInt(a % 2)} }
	sel := vec.NewBatch(kinds)
	for _, a := range []int64{-1, 0, -1, 1, 2} {
		sel.AppendRow(row(a))
	}
	sel.Sel = []int{1, 3, 4}
	full := vec.NewBatch(kinds)
	for a := int64(3); a < 7; a++ {
		full.AppendRow(row(a))
	}
	slots := []int{0, 1}
	return &gatherBatchCursor{batches: []*SlotBatch{
		{B: sel, Slots: slots},
		{B: full, Slots: slots},
		{Rows: []value.Row{row(7), row(8), row(9)}},
	}}, 10
}

// TestRowReader reads a batch stream row by row: every live row exactly
// once and in order, and — because rows are carved from a fresh backing
// array per batch — still intact after the reader has moved on to later
// batches.
func TestRowReader(t *testing.T) {
	in, n := adapterInput()
	rd := &rowReader{in: in, width: 2}
	var got []value.Row
	for {
		r, ok := rd.next()
		if !ok {
			break
		}
		got = append(got, r)
	}
	if len(got) != n {
		t.Fatalf("%d rows, want %d", len(got), n)
	}
	for i, r := range got {
		if r[0].Int() != int64(i) || r[1].Int() != int64(i%2) {
			t.Fatalf("row %d = %v", i, r)
		}
	}
}

// TestLift lifts a row step in batches of limit rows, and never calls
// the step again once it has reported the end: a bounded B+ tree cursor
// would read and charge one more row past its range.
func TestLift(t *testing.T) {
	calls, ended := 0, 0
	step := func() (value.Row, bool) {
		calls++
		if calls > 7 {
			ended++
			return nil, false
		}
		return value.Row{value.NewInt(int64(calls))}, true
	}
	l := &lift{step: step, limit: 3}
	var sizes []int
	var got []value.Row
	for {
		sb, ok := l.NextBatch()
		if !ok {
			break
		}
		sizes = append(sizes, sb.Len())
		got = sb.appendRows(got, 1)
	}
	if _, ok := l.NextBatch(); ok || ended != 1 {
		t.Fatalf("step called %d times after the end", ended)
	}
	if !slices.Equal(sizes, []int{3, 3, 1}) {
		t.Fatalf("batch sizes %v, want [3 3 1]", sizes)
	}
	for i, r := range got {
		if r[0].Int() != int64(i+1) {
			t.Fatalf("row %d = %v", i, r)
		}
	}
}

// TestOneRowCursorUnderFilter puts the consumer that makes re-slicing
// hard directly above the re-slicer: batchFilter narrows a columnar
// batch by overwriting its Sel. Every live input row must still reach
// the filter exactly once, one per batch, and the producer's own
// selection must be left alone.
func TestOneRowCursorUnderFilter(t *testing.T) {
	in, n := adapterInput()
	producerSel := in.batches[0].B.Sel
	one := &oneRowCursor{in: in}
	ctx := testCtx()
	odd := &sql.BinOp{Op: "=", L: &sql.ColRef{Slot: 1, Kind: value.KindInt}, R: &sql.Lit{Val: value.NewInt(1)}}
	f := newBatchFilter(ctx, &countingCursor{t: t, in: one}, []sql.Expr{odd})
	var got []int64
	for {
		sb, ok := f.NextBatch()
		if !ok {
			break
		}
		for _, r := range sb.materializeRows(2) {
			got = append(got, r[0].Int())
		}
	}
	if want := []int64{1, 3, 5, 7, 9}; len(got) != len(want) {
		t.Fatalf("filtered rows = %v, want %v", got, want)
	} else {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("filtered rows = %v, want %v", got, want)
			}
		}
	}
	// One RowCPU/2 filter charge per input row, none for rows never
	// pulled: the property the one-row rule exists for.
	if want := ctx.Tr.Model.RowCPU / 2 * float64(n); float64(ctx.Tr.CPUTime()) != want {
		t.Errorf("filter charged %v, want %v ns", ctx.Tr.CPUTime(), want)
	}
	if len(producerSel) != 3 || producerSel[0] != 1 || producerSel[1] != 3 || producerSel[2] != 4 {
		t.Errorf("producer's selection clobbered: %v", producerSel)
	}
}

// countingCursor asserts every batch passing through holds one row.
type countingCursor struct {
	t  *testing.T
	in BatchCursor
}

func (c *countingCursor) NextBatch() (*SlotBatch, bool) {
	sb, ok := c.in.NextBatch()
	if ok && sb.Len() != 1 {
		c.t.Fatalf("re-sliced batch holds %d rows", sb.Len())
	}
	return sb, ok
}

// TestBatchTopTrims feeds batchTop batches of several rows, which the
// one-row rule never hands it: it must stop after exactly N rows
// whether the final batch is columnar with a selection, fully live
// columnar, or row-layout.
func TestBatchTopTrims(t *testing.T) {
	for _, n := range []int64{0, 2, 5, 8, 10, 12} {
		in, total := adapterInput()
		top := &batchTop{in: in, n: n}
		var got []value.Row
		for sb, ok := top.NextBatch(); ok; sb, ok = top.NextBatch() {
			got = sb.appendRows(got, 2)
		}
		if want := min(n, int64(total)); int64(len(got)) != want {
			t.Fatalf("TOP %d: %d rows, want %d", n, len(got), want)
		}
		for i, r := range got {
			if r[0].Int() != int64(i) {
				t.Fatalf("TOP %d: row %d = %v", n, i, r)
			}
		}
	}
}
