package exec

import (
	"testing"

	"hybriddb/internal/plan"
	"hybriddb/internal/sql"
	"hybriddb/internal/value"
	"hybriddb/internal/vec"
)

// TestInterleavedBatchScanSelectionIsolation is the regression test for
// the bug class the bufalias analyzer exists to catch: the batch scan
// source reuses two ping-pong selection buffers (csiBatchSource.selBuf)
// across next() calls, so a buffer shared between two live scans —
// via a global pool, a copied struct, or any other aliasing — would
// let one scan's conjunct evaluation overwrite the selection vector
// the other scan is still reading.
//
// Two batch scans over the same table, with disjoint filters (b even
// vs b odd), are advanced in lockstep. After every advance of one
// scan, the batch most recently returned by the *other* scan must
// still hold exactly the rows its own filter selected: if the
// selection buffers alias, the second scan's narrowing pass leaks its
// row positions into the first scan's live batch.
func TestInterleavedBatchScanSelectionIsolation(t *testing.T) {
	tbl := fixtureTable(t, 4096, 2) // b = i % 2: even rows b=0, odd rows b=1
	cond := func(v int64) *sql.BinOp {
		return &sql.BinOp{Op: "=",
			L: &sql.ColRef{Slot: 1, Kind: value.KindInt}, R: &sql.Lit{Val: value.NewInt(v)}}
	}

	newSource := func(v int64) *csiBatchSource {
		s := scanNode(tbl, plan.AccessCSIScan)
		s.Filter = []sql.Expr{cond(v)}
		src, err := newCSIBatchSource(ctxFor(tbl), s)
		if err != nil {
			t.Fatal(err)
		}
		return src
	}
	even, odd := newSource(0), newSource(1)

	// verify checks that every selected position in the batch satisfies
	// the scan's own predicate (column a = original row index, so
	// a%2 == want discriminates the two scans' rows).
	verify := func(tag string, src *csiBatchSource, b *vec.Batch, want int64) {
		t.Helper()
		if b == nil {
			return
		}
		if b.Len() == 0 {
			t.Fatalf("%s: empty selection on a live batch", tag)
		}
		aIdx := slotVec(src.slots, 0)
		if aIdx < 0 {
			t.Fatalf("%s: column a not decoded", tag)
		}
		for i := 0; i < b.Len(); i++ {
			p := b.LiveIndex(i)
			if got := b.Cols[aIdx].I[p] % 2; got != want {
				t.Fatalf("%s: selection leaked: row a%%2=%d in scan wanting %d (pos %d of %d)",
					tag, got, want, i, b.Len())
			}
		}
	}

	evenRows, oddRows := 0, 0
	var evenBatch, oddBatch *vec.Batch
	for {
		var evenOK, oddOK bool
		evenBatch, evenOK = even.next()
		// Advancing the odd scan must not disturb the even scan's live
		// batch, and vice versa on the next iteration.
		oddBatch, oddOK = odd.next()
		verify("even after odd advanced", even, evenBatch, 0)
		verify("odd", odd, oddBatch, 1)
		if evenOK {
			evenRows += evenBatch.Len()
		}
		if oddOK {
			oddRows += oddBatch.Len()
		}
		if !evenOK && !oddOK {
			break
		}
		// Re-check the odd batch after the loop re-advances even first.
	}
	if evenRows != 2048 || oddRows != 2048 {
		t.Fatalf("row counts: even=%d odd=%d, want 2048 each", evenRows, oddRows)
	}
}
