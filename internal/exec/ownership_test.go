package exec

import (
	"testing"

	"hybriddb/internal/plan"
	"hybriddb/internal/sql"
	"hybriddb/internal/storage"
	"hybriddb/internal/table"
	"hybriddb/internal/value"
	"hybriddb/internal/vclock"
)

// TestUIDCursorRowsAreFresh checks what the nested-loop join's overlay
// rests on: every row a UIDCursor returns is the caller's, sharing no
// storage with any row it returned before. Each cursor runs under a
// filter that rejects rows between the ones it returns, so a cursor
// that refills a spare row must replace it once it is handed over.
func TestUIDCursorRowsAreFresh(t *testing.T) {
	tbl := fixtureTable(t, 3000, 50)
	heapT := table.New(storage.NewStore(0), "h", tbl.Schema, nil)
	rows := make([]value.Row, 2000)
	for i := range rows {
		rows[i] = value.Row{value.NewInt(int64(i)), value.NewInt(int64(i % 50)), value.NewString("s")}
	}
	heapT.BulkLoad(nil, rows)

	lt := func(slot int, v int64) []sql.Expr {
		return []sql.Expr{&sql.BinOp{Op: "<", L: &sql.ColRef{Slot: slot, Kind: value.KindInt}, R: &sql.Lit{Val: value.NewInt(v)}}}
	}
	heapScan := scanNode(heapT, plan.AccessHeapScan)
	heapScan.Filter = lt(1, 20)
	clustered := scanNode(tbl, plan.AccessClusteredScan)
	clustered.Filter = lt(1, 20)
	seek := scanNode(tbl, plan.AccessClusteredSeek)
	seek.SeekCol = 0
	seek.Lo = plan.Bound{Val: value.NewInt(100), Inclusive: true}
	seek.Hi = plan.Bound{Val: value.NewInt(900), Inclusive: true}
	seek.Filter = lt(1, 20)
	secondary := func(covered bool) *plan.Scan {
		s := scanNode(tbl, plan.AccessSecondarySeek)
		s.Index = tbl.FindSecondary("ixb")
		s.SeekCol = 1
		s.Lo = plan.Bound{Val: value.NewInt(5), Inclusive: true}
		s.Hi = plan.Bound{Val: value.NewInt(8), Inclusive: true}
		s.Covered = covered
		s.Filter = []sql.Expr{&sql.BinOp{Op: "<>", L: &sql.ColRef{Slot: 2, Kind: value.KindString}, R: &sql.Lit{Val: value.NewString("s1")}}}
		return s
	}
	csi := scanNode(tbl, plan.AccessCSIScan)
	csi.Filter = lt(1, 20)

	for name, s := range map[string]*plan.Scan{
		"heap": heapScan, "clustered": clustered, "clustered_seek": seek,
		"secondary_covered": secondary(true), "secondary_lookup": secondary(false), "csi": csi,
	} {
		cur, err := BuildScan(ctxFor(tbl), s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var got []value.Row
		for {
			r, ok := cur.Next()
			if !ok {
				break
			}
			got = append(got, r)
		}
		if len(got) < 2 {
			t.Fatalf("%s: %d rows", name, len(got))
		}
		// Stamp every slot of row i with i: a row sharing storage with
		// another then carries the other's stamp.
		for i, r := range got {
			for j := range r {
				r[j] = value.NewInt(int64(i))
			}
		}
		for i, r := range got {
			for j, v := range r {
				if v.Int() != int64(i) {
					t.Fatalf("%s: row %d slot %d reads %d: rows share storage", name, i, j, v.Int())
				}
			}
		}
	}
}

// TestNLJRowsAreFresh joins each outer row to many inner rows through a
// secondary seek: every joined row must keep its own inner values after
// later matches of the same outer row are produced.
func TestNLJRowsAreFresh(t *testing.T) {
	outerT := fixtureTable(t, 400, 50)
	innerT := fixtureTable(t, 2000, 50)
	outer := scanNode(outerT, plan.AccessClusteredScan)
	outer.Filter = []sql.Expr{&sql.BinOp{Op: "<", L: &sql.ColRef{Slot: 0, Kind: value.KindInt}, R: &sql.Lit{Val: value.NewInt(6)}}}
	inner := scanNode(innerT, plan.AccessSecondarySeek)
	inner.Index = innerT.FindSecondary("ixb")
	inner.SlotBase = 3
	inner.SeekCol = 1
	nlj := &plan.Join{Strategy: plan.JoinNestedLoop, Outer: outer, Inner: inner,
		Keys: []plan.JoinKey{{Left: 1, Right: 4, Kind: value.KindInt}}}
	ctx := &Context{Tr: vclock.NewTracker(vclock.DefaultModel(vclock.DRAM)), TotalSlots: 6, DOP: 1}
	rows := drain(t, ctx, nlj)
	if len(rows) != 6*40 {
		t.Fatalf("%d joined rows, want %d", len(rows), 6*40)
	}
	seen := map[[2]int64]bool{}
	for _, r := range rows {
		if r[1].Int() != r[4].Int() || r[3].Int()%50 != r[0].Int() {
			t.Fatalf("joined row %v does not match its key", r)
		}
		seen[[2]int64{r[0].Int(), r[3].Int()}] = true
	}
	if len(seen) != len(rows) {
		t.Fatalf("%d distinct (outer, inner) pairs among %d rows", len(seen), len(rows))
	}
}

// TestNLJInnerMustOpen checks that a nested-loop join whose inner scan
// cannot be opened fails when it is built, instead of joining every
// outer row to an empty inner.
func TestNLJInnerMustOpen(t *testing.T) {
	outerT := fixtureTable(t, 400, 50)
	innerT := fixtureTable(t, 2000, 50)
	ghost := scanNode(innerT, plan.AccessSecondarySeek)
	ghost.Index = &table.Secondary{Name: "ghost", Keys: []int{1}, Hypothetical: true} // no tree
	ghost.SlotBase = 3
	ghost.SeekCol = 1
	csiInner := scanNode(innerT, plan.AccessCSIScan)
	csiInner.SlotBase = 3
	for name, inner := range map[string]*plan.Scan{"treeless_secondary": ghost, "columnstore": csiInner} {
		nlj := &plan.Join{Strategy: plan.JoinNestedLoop, Outer: scanNode(outerT, plan.AccessClusteredScan), Inner: inner,
			Keys: []plan.JoinKey{{Left: 1, Right: 4, Kind: value.KindInt}}}
		ctx := &Context{Tr: vclock.NewTracker(vclock.DefaultModel(vclock.DRAM)), TotalSlots: 6, DOP: 1}
		cur, err := BuildBatch(ctx, nlj)
		if err == nil {
			n := 0
			for sb, ok := cur.NextBatch(); ok; sb, ok = cur.NextBatch() {
				n += sb.Len()
			}
			t.Fatalf("%s: join built without error and returned %d rows", name, n)
		}
	}
}
