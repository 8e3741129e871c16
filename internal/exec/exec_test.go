package exec

import (
	"slices"
	"sort"
	"testing"

	"hybriddb/internal/colstore"
	"hybriddb/internal/plan"
	"hybriddb/internal/sql"
	"hybriddb/internal/storage"
	"hybriddb/internal/table"
	"hybriddb/internal/value"
	"hybriddb/internal/vclock"
)

// fixture: table t(a BIGINT cluster key, b BIGINT, s VARCHAR) with n
// rows: a=i, b=i%mod, s="s<i%3>", as clustered B+ tree + secondary CSI
// + secondary B+ tree on b (include s).
func fixtureTable(tb testing.TB, n, mod int) *table.Table {
	tb.Helper()
	st := storage.NewStore(0)
	sch := value.NewSchema(
		value.Column{Name: "a", Kind: value.KindInt},
		value.Column{Name: "b", Kind: value.KindInt},
		value.Column{Name: "s", Kind: value.KindString},
	)
	t := table.New(st, "t", sch, nil)
	t.SetRowGroupSize(1024)
	rows := make([]value.Row, n)
	strs := []string{"s0", "s1", "s2"}
	for i := range rows {
		rows[i] = value.Row{
			value.NewInt(int64(i)),
			value.NewInt(int64(i % mod)),
			value.NewString(strs[i%3]),
		}
	}
	t.BulkLoad(nil, rows)
	t.ConvertPrimary(nil, table.PrimaryBTree, []int{0})
	t.AddSecondaryCSI(nil, "csi")
	t.AddSecondaryBTree(nil, "ixb", []int{1}, []int{2})
	return t
}

func ctxFor(t *table.Table) *Context {
	return &Context{
		Tr:         vclock.NewTracker(vclock.DefaultModel(vclock.DRAM)),
		TotalSlots: t.Schema.Len(),
		DOP:        1,
	}
}

func scanNode(t *table.Table, access plan.AccessKind) *plan.Scan {
	s := &plan.Scan{
		Table: t, Access: access, SeekCol: -1,
		Lo: plan.Bound{Unbounded: true}, Hi: plan.Bound{Unbounded: true},
		Covered: true, BatchMode: access == plan.AccessCSIScan,
	}
	if access == plan.AccessCSIScan {
		s.Index = t.SecondaryCSI()
	}
	return s
}

// drain runs a plan the way Execute does: built by BuildBatch, its
// batches materialized as composite rows.
func drain(tb testing.TB, ctx *Context, n plan.Node) []value.Row {
	tb.Helper()
	cur, err := BuildBatch(ctx, n)
	if err != nil {
		tb.Fatal(err)
	}
	var out []value.Row
	for {
		sb, ok := cur.NextBatch()
		if !ok {
			return out
		}
		out = sb.AppendRows(out)
	}
}

func colInt(rows []value.Row, c int) []int64 {
	out := make([]int64, len(rows))
	for i, r := range rows {
		out[i] = r[c].Int()
	}
	return out
}

func TestScansAgree(t *testing.T) {
	tbl := fixtureTable(t, 5000, 17)
	var counts []int
	for _, access := range []plan.AccessKind{plan.AccessClusteredScan, plan.AccessCSIScan} {
		ctx := ctxFor(tbl)
		rows := drain(t, ctx, scanNode(tbl, access))
		counts = append(counts, len(rows))
		sum := int64(0)
		for _, r := range rows {
			sum += r[0].Int()
		}
		if sum != int64(5000*4999/2) {
			t.Errorf("%v: sum = %d", access, sum)
		}
	}
	if counts[0] != counts[1] || counts[0] != 5000 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestClusteredSeekBounds(t *testing.T) {
	tbl := fixtureTable(t, 1000, 7)
	s := scanNode(tbl, plan.AccessClusteredSeek)
	s.SeekCol = 0
	s.Lo = plan.Bound{Val: value.NewInt(10), Inclusive: false}
	s.Hi = plan.Bound{Val: value.NewInt(20), Inclusive: true}
	rows := drain(t, ctxFor(tbl), s)
	got := colInt(rows, 0)
	if len(got) != 10 || got[0] != 11 || got[len(got)-1] != 20 {
		t.Fatalf("exclusive-lo seek = %v", got)
	}
}

func TestSecondarySeekCoveredAndLookup(t *testing.T) {
	tbl := fixtureTable(t, 3000, 50)
	sec := tbl.FindSecondary("ixb")
	mk := func(covered bool, need []int) *plan.Scan {
		s := scanNode(tbl, plan.AccessSecondarySeek)
		s.Index = sec
		s.SeekCol = 1
		s.Lo = plan.Bound{Val: value.NewInt(5), Inclusive: true}
		s.Hi = plan.Bound{Val: value.NewInt(5), Inclusive: true}
		s.Covered = covered
		s.NeedCols = need
		return s
	}
	covered := drain(t, ctxFor(tbl), mk(true, []int{1, 2}))
	if len(covered) != 60 {
		t.Fatalf("covered rows = %d", len(covered))
	}
	for _, r := range covered {
		if r[1].Int() != 5 || r[2].IsNull() {
			t.Fatalf("covered row = %v", r)
		}
	}
	// Uncovered: needs column a too -> base lookups fill everything.
	ctx := ctxFor(tbl)
	uncovered := drain(t, ctx, mk(false, []int{0, 1, 2}))
	if len(uncovered) != 60 {
		t.Fatalf("uncovered rows = %d", len(uncovered))
	}
	for _, r := range uncovered {
		if r[0].IsNull() || r[0].Int()%50 != 5 {
			t.Fatalf("lookup row = %v", r)
		}
	}

	// On a clustered columnstore there is no key to look a row up by:
	// the covered seek still runs, the uncovered one is refused.
	tbl.ConvertPrimary(nil, table.PrimaryColumnstore, nil)
	if got := len(drain(t, ctxFor(tbl), mk(true, []int{1, 2}))); got != 60 {
		t.Fatalf("covered rows over a clustered columnstore = %d", got)
	}
	if _, err := BuildBatch(ctxFor(tbl), mk(false, []int{0, 1, 2})); err == nil {
		t.Fatal("an uncovered seek on a clustered columnstore was built")
	}
}

func TestFilterProjectTop(t *testing.T) {
	tbl := fixtureTable(t, 500, 10)
	col := func(slot int) *sql.ColRef { return &sql.ColRef{Slot: slot, Kind: value.KindInt} }
	filter := &plan.Filter{
		Input: scanNode(tbl, plan.AccessClusteredScan),
		Conds: []sql.Expr{&sql.BinOp{Op: "=", L: col(1), R: &sql.Lit{Val: value.NewInt(3)}}},
	}
	top := &plan.Top{Input: filter, N: 7}
	proj := &plan.Project{Input: top, Exprs: []sql.Expr{
		&sql.BinOp{Op: "*", L: col(0), R: &sql.Lit{Val: value.NewInt(2)}},
	}}
	rows := drain(t, ctxFor(tbl), proj)
	if len(rows) != 7 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, r := range rows {
		if r[0].Int() != int64((i*10+3)*2) {
			t.Fatalf("row %d = %v", i, r)
		}
	}
}

func TestSortDirectionsAndSpill(t *testing.T) {
	tbl := fixtureTable(t, 4000, 977)
	col := func(slot int) *sql.ColRef { return &sql.ColRef{Slot: slot, Kind: value.KindInt} }
	srt := &plan.Sort{
		Input: scanNode(tbl, plan.AccessClusteredScan),
		Keys:  []plan.SortKey{{Expr: col(1), Desc: true}, {Expr: col(0)}},
	}
	ctx := ctxFor(tbl)
	rows := drain(t, ctx, srt)
	if len(rows) != 4000 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		b0, b1 := rows[i-1][1].Int(), rows[i][1].Int()
		if b1 > b0 || (b1 == b0 && rows[i][0].Int() < rows[i-1][0].Int()) {
			t.Fatalf("sort order broken at %d", i)
		}
	}
	if ctx.Tr.BytesWritten != 0 {
		t.Error("unlimited grant spilled")
	}
	// Grant-bounded: same result, spill charged.
	ctx2 := ctxFor(tbl)
	ctx2.Grant = 32 * 1024
	rows2 := drain(t, ctx2, &plan.Sort{
		Input: scanNode(tbl, plan.AccessClusteredScan),
		Keys:  []plan.SortKey{{Expr: col(1), Desc: true}, {Expr: col(0)}},
	})
	if len(rows2) != 4000 {
		t.Fatalf("spilled rows = %d", len(rows2))
	}
	for i := range rows2 {
		if value.CompareRows(rows[i], rows2[i], nil) != 0 {
			t.Fatalf("spill changed order at %d", i)
		}
	}
	if ctx2.Tr.BytesWritten == 0 {
		t.Error("bounded grant did not spill")
	}
	if ctx2.Tr.MemPeak >= ctx.Tr.MemPeak {
		t.Errorf("grant did not bound memory: %d vs %d", ctx2.Tr.MemPeak, ctx.Tr.MemPeak)
	}
}

func aggNode(input plan.Node, strategy plan.AggStrategy, batch bool) *plan.Agg {
	col := func(slot int) *sql.ColRef { return &sql.ColRef{Slot: slot, Kind: value.KindInt} }
	return &plan.Agg{
		Input:      input,
		Strategy:   strategy,
		GroupSlots: []int{1},
		GroupKinds: []value.Kind{value.KindInt},
		Specs: []plan.AggSpec{
			{Func: plan.AggCount},
			{Func: plan.AggSum, Arg: col(0)},
			{Func: plan.AggMin, Arg: col(0)},
			{Func: plan.AggMax, Arg: col(0)},
			{Func: plan.AggAvg, Arg: col(0)},
			{Func: plan.AggCount, Arg: col(2), Distinct: true},
		},
		BatchMode: batch,
	}
}

func sortedAggRows(tb testing.TB, tbl *table.Table, strategy plan.AggStrategy, access plan.AccessKind, grant int64) []value.Row {
	tb.Helper()
	ctx := ctxFor(tbl)
	ctx.Grant = grant
	var input plan.Node = scanNode(tbl, access)
	rows := drain(tb, ctx, aggNode(input, strategy, access == plan.AccessCSIScan))
	sort.Slice(rows, func(i, j int) bool { return rows[i][0].Int() < rows[j][0].Int() })
	return rows
}

// TestAggStrategiesAgree checks hash (row), hash (batch over CSI),
// stream (sorted clustered scan is not sorted by b, so use hash
// results as reference), and spilling hash all produce identical
// aggregates.
func TestAggStrategiesAgree(t *testing.T) {
	tbl := fixtureTable(t, 6000, 13)
	ref := sortedAggRows(t, tbl, plan.AggHash, plan.AccessClusteredScan, 0)
	if len(ref) != 13 {
		t.Fatalf("groups = %d", len(ref))
	}
	// COUNT per group: 6000/13 ~ 461-462; distinct strings max 3.
	for _, r := range ref {
		if r[1].Int() < 461 || r[1].Int() > 462 {
			t.Fatalf("count = %v", r[1])
		}
		if r[6].Int() < 1 || r[6].Int() > 3 {
			t.Fatalf("distinct = %v", r[6])
		}
		avg := r[5].Float()
		if avg < float64(r[2].Int())/float64(r[1].Int())-1 {
			t.Fatalf("avg inconsistent: %v", r)
		}
	}
	batch := sortedAggRows(t, tbl, plan.AggHash, plan.AccessCSIScan, 0)
	spilled := sortedAggRows(t, tbl, plan.AggHash, plan.AccessClusteredScan, 8*1024)
	for i := range ref {
		if value.CompareRows(ref[i], batch[i], nil) != 0 {
			t.Fatalf("batch agg differs at %d: %v vs %v", i, ref[i], batch[i])
		}
		if value.CompareRows(ref[i], spilled[i], nil) != 0 {
			t.Fatalf("spilled agg differs at %d: %v vs %v", i, ref[i], spilled[i])
		}
	}
}

func TestStreamAggOnSortedInput(t *testing.T) {
	// Group by the cluster key itself: clustered scan is sorted by it.
	tbl := fixtureTable(t, 300, 300)
	agg := &plan.Agg{
		Input:      scanNode(tbl, plan.AccessClusteredScan),
		Strategy:   plan.AggStream,
		GroupSlots: []int{0},
		GroupKinds: []value.Kind{value.KindInt},
		Specs:      []plan.AggSpec{{Func: plan.AggCount}},
	}
	ctx := ctxFor(tbl)
	rows := drain(t, ctx, agg)
	if len(rows) != 300 {
		t.Fatalf("groups = %d", len(rows))
	}
	for _, r := range rows {
		if r[1].Int() != 1 {
			t.Fatalf("stream count = %v", r)
		}
	}
	if ctx.Tr.MemPeak > 4096 {
		t.Errorf("stream agg used %d bytes", ctx.Tr.MemPeak)
	}
}

func TestJoinStrategiesAgree(t *testing.T) {
	outerT := fixtureTable(t, 400, 50)
	innerT := fixtureTable(t, 2000, 50)
	totalSlots := 6
	mkCtx := func() *Context {
		return &Context{Tr: vclock.NewTracker(vclock.DefaultModel(vclock.DRAM)), TotalSlots: totalSlots, DOP: 1}
	}
	outerScan := func() *plan.Scan {
		s := scanNode(outerT, plan.AccessClusteredScan)
		s.SlotBase = 0
		s.Filter = []sql.Expr{&sql.BinOp{Op: "<",
			L: &sql.ColRef{Slot: 0, Kind: value.KindInt}, R: &sql.Lit{Val: value.NewInt(30)}}}
		return s
	}
	innerSeek := scanNode(innerT, plan.AccessClusteredSeek)
	innerSeek.SlotBase = 3
	innerSeek.SeekCol = 0

	nlj := &plan.Join{
		Strategy: plan.JoinNestedLoop,
		Outer:    outerScan(), Inner: innerSeek,
		Keys: []plan.JoinKey{{Left: 0, Right: 3, Kind: value.KindInt}},
	}
	nljRows := drain(t, mkCtx(), nlj)

	innerScan := scanNode(innerT, plan.AccessClusteredScan)
	innerScan.SlotBase = 3
	hj := &plan.Join{
		Strategy: plan.JoinHash,
		Outer:    outerScan(), Inner: innerScan,
		Keys: []plan.JoinKey{{Left: 0, Right: 3, Kind: value.KindInt}},
	}
	hjRows := drain(t, mkCtx(), hj)

	if len(nljRows) != 30 || len(hjRows) != 30 {
		t.Fatalf("nlj=%d hash=%d", len(nljRows), len(hjRows))
	}
	key := func(r value.Row) int64 { return r[0].Int()*1000 + r[3].Int() }
	sort.Slice(nljRows, func(i, j int) bool { return key(nljRows[i]) < key(nljRows[j]) })
	sort.Slice(hjRows, func(i, j int) bool { return key(hjRows[i]) < key(hjRows[j]) })
	for i := range nljRows {
		if key(nljRows[i]) != key(hjRows[i]) {
			t.Fatalf("join mismatch at %d", i)
		}
		if nljRows[i][0].Int() != nljRows[i][3].Int() {
			t.Fatalf("join produced non-matching row %v", nljRows[i])
		}
	}
}

func TestBatchFilterFastAndGenericAgree(t *testing.T) {
	tbl := fixtureTable(t, 3000, 17)
	intCond := &sql.BinOp{Op: "<",
		L: &sql.ColRef{Slot: 1, Kind: value.KindInt}, R: &sql.Lit{Val: value.NewInt(5)}}
	strCond := &sql.BinOp{Op: "=",
		L: &sql.ColRef{Slot: 2, Kind: value.KindString}, R: &sql.Lit{Val: value.NewString("s1")}}

	s := scanNode(tbl, plan.AccessCSIScan)
	s.Filter = []sql.Expr{intCond, strCond} // fast path + generic fallback
	rows := drain(t, ctxFor(tbl), s)

	// Reference via row-mode clustered scan with the same filters.
	ref := scanNode(tbl, plan.AccessClusteredScan)
	ref.Filter = []sql.Expr{intCond, strCond}
	refRows := drain(t, ctxFor(tbl), ref)
	if len(rows) != len(refRows) || len(rows) == 0 {
		t.Fatalf("csi=%d ref=%d", len(rows), len(refRows))
	}
	a, b := colInt(rows, 0), colInt(refRows, 0)
	sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("filter mismatch at %d", i)
		}
	}
}

// TestScanWritesUIDSlot checks how DML finds its target rows: a scan
// whose NeedCols asks for the hidden UID column writes each row's UID
// to the slot after the table's, and a scan that does not ask leaves
// that slot NULL.
func TestScanWritesUIDSlot(t *testing.T) {
	tbl := fixtureTable(t, 100, 5)
	_, uids := tbl.AllRows(nil) // in key order: uids[a] is row a's
	uid := tbl.UIDColumn()
	for _, access := range []plan.AccessKind{plan.AccessClusteredScan, plan.AccessCSIScan} {
		for _, asked := range []bool{true, false} {
			s := scanNode(tbl, access)
			if asked {
				s.NeedCols = []int{0, 1, 2, uid}
			}
			ctx := ctxFor(tbl)
			ctx.TotalSlots = uid + 1
			rows := drain(t, ctx, s)
			if len(rows) != len(uids) {
				t.Fatalf("%v: %d rows, want %d", access, len(rows), len(uids))
			}
			for _, r := range rows {
				if !asked {
					if !r[uid].IsNull() {
						t.Fatalf("%v: UID slot holds %v though NeedCols did not ask for it", access, r[uid])
					}
					continue
				}
				if got, want := r[uid].Int(), uids[r[0].Int()]; got != want {
					t.Fatalf("%v: row a=%d carries UID %d, want %d", access, r[0].Int(), got, want)
				}
			}
		}
	}
}

func TestMergeJoinAgreesWithHashJoin(t *testing.T) {
	outerT := fixtureTable(t, 300, 40)
	innerT := fixtureTable(t, 1500, 40)
	totalSlots := 6
	mkCtx := func() *Context {
		return &Context{Tr: vclock.NewTracker(vclock.DefaultModel(vclock.DRAM)), TotalSlots: totalSlots, DOP: 1}
	}
	// Both inputs sorted on their cluster keys (column a = ordinal 0).
	outerScan := func() *plan.Scan {
		s := scanNode(outerT, plan.AccessClusteredScan)
		s.SlotBase = 0
		return s
	}
	innerScan := func() *plan.Scan {
		s := scanNode(innerT, plan.AccessClusteredScan)
		s.SlotBase = 3
		return s
	}
	mj := &plan.Join{
		Strategy: plan.JoinMerge,
		Outer:    outerScan(), Inner: innerScan(),
		Keys: []plan.JoinKey{{Left: 0, Right: 3, Kind: value.KindInt}},
	}
	mjCtx := mkCtx()
	mjRows := drain(t, mjCtx, mj)

	hj := &plan.Join{
		Strategy: plan.JoinHash,
		Outer:    outerScan(), Inner: innerScan(),
		Keys: []plan.JoinKey{{Left: 0, Right: 3, Kind: value.KindInt}},
	}
	hjCtx := mkCtx()
	hjRows := drain(t, hjCtx, hj)

	if len(mjRows) != len(hjRows) || len(mjRows) != 300 {
		t.Fatalf("merge=%d hash=%d", len(mjRows), len(hjRows))
	}
	key := func(r value.Row) int64 { return r[0].Int()*10000 + r[3].Int() }
	sort.Slice(mjRows, func(i, j int) bool { return key(mjRows[i]) < key(mjRows[j]) })
	sort.Slice(hjRows, func(i, j int) bool { return key(hjRows[i]) < key(hjRows[j]) })
	for i := range mjRows {
		if key(mjRows[i]) != key(hjRows[i]) {
			t.Fatalf("merge/hash mismatch at %d", i)
		}
	}
	// Merge join uses no join memory; the hash join builds a table.
	if mjCtx.Tr.MemPeak >= hjCtx.Tr.MemPeak {
		t.Errorf("merge join memory %d should be below hash join %d",
			mjCtx.Tr.MemPeak, hjCtx.Tr.MemPeak)
	}
}

func TestMergeJoinDuplicateRuns(t *testing.T) {
	// Heavy duplicates on both sides: 60 left rows with 3 distinct keys,
	// 90 right rows with the same keys -> every pair joins.
	st := storage.NewStore(0)
	sch := value.NewSchema(
		value.Column{Name: "k", Kind: value.KindInt},
		value.Column{Name: "v", Kind: value.KindInt},
	)
	mk := func(n int) *table.Table {
		tb := table.New(st, "x", sch, nil)
		rows := make([]value.Row, n)
		for i := range rows {
			rows[i] = value.Row{value.NewInt(int64(i % 3)), value.NewInt(int64(i))}
		}
		tb.BulkLoad(nil, rows)
		tb.ConvertPrimary(nil, table.PrimaryBTree, []int{0})
		return tb
	}
	left, right := mk(60), mk(90)
	ls := scanNode(left, plan.AccessClusteredScan)
	rs := scanNode(right, plan.AccessClusteredScan)
	rs.SlotBase = 2
	ctx := &Context{Tr: vclock.NewTracker(vclock.DefaultModel(vclock.DRAM)), TotalSlots: 4, DOP: 1}
	rows := drain(t, ctx, &plan.Join{
		Strategy: plan.JoinMerge, Outer: ls, Inner: rs, Keys: []plan.JoinKey{{Left: 0, Right: 2, Kind: value.KindInt}},
	})
	if len(rows) != 60*30 {
		t.Fatalf("rows = %d, want %d", len(rows), 60*30)
	}
	for _, r := range rows {
		if r[0].Int() != r[2].Int() {
			t.Fatalf("bad join row %v", r)
		}
	}
}

// tableCatalog lets the binder resolve the fixture table.
type tableCatalog struct{ t *table.Table }

func (c tableCatalog) TableSchema(name string) (*value.Schema, bool) {
	return c.t.Schema, name == c.t.Name
}

// TestComparisonConsumersAgree is the executor's half of the check the
// optimizer and advisor tests of the same name make on the same six
// conjuncts: newBatchPred reads a column-versus-constant conjunct as
// sql.AsComparison does — so 5 < a runs on the typed vectors as a > 5
// instead of the compiled predicate — and the typed path selects the
// rows the compiled predicate selects.
func TestComparisonConsumersAgree(t *testing.T) {
	tbl := fixtureTable(t, 3000, 17)
	for _, c := range []struct {
		where string
		fast  bool
		op    colstore.PredOp
		lit   int64
		ri    int // -1: compared with lit
	}{
		{"a = 5", true, colstore.PredEQ, 5, -1},
		{"5 < a", true, colstore.PredGT, 5, -1},
		{"b <> 3", true, colstore.PredNE, 3, -1},
		{"7 >= b", true, colstore.PredLE, 7, -1},
		{"a = NULL", false, 0, 0, 0},
		{"a <= b", true, colstore.PredLE, 0, 1}, // column versus column: not AsComparison's, still typed
	} {
		st, err := sql.ParseOne("SELECT a FROM t WHERE " + c.where)
		if err != nil {
			t.Fatal(err)
		}
		b, err := sql.NewBinder(tableCatalog{tbl}).BindSelect(st.(*sql.SelectStmt))
		if err != nil {
			t.Fatal(err)
		}
		bp := newBatchPred(b.Conjuncts[0], []int{0, 1, 2})
		if ok := bp.li >= 0; ok != c.fast || (ok && (bp.op != c.op || bp.lit != c.lit || bp.ri != c.ri)) {
			t.Errorf("%s: newBatchPred = %+v; want op %v lit %d ri %d, typed %v", c.where, bp, c.op, c.lit, c.ri, c.fast)
		}

		s := scanNode(tbl, plan.AccessCSIScan)
		s.Filter = b.Conjuncts
		src, err := newCSIBatchSource(ctxFor(tbl), s)
		if err != nil {
			t.Fatal(err)
		}
		if typed := src.preds[0].li >= 0; typed != c.fast {
			t.Errorf("%s: columnstore source took the typed path = %v, want %v", c.where, typed, c.fast)
		}
		typed := colInt(drain(t, ctxFor(tbl), s), 0)
		ref := scanNode(tbl, plan.AccessClusteredScan) // row-wise scan: compiled predicate per row
		ref.Filter = b.Conjuncts
		generic := colInt(drain(t, ctxFor(tbl), ref), 0)
		sort.Slice(typed, func(i, j int) bool { return typed[i] < typed[j] })
		if !slices.Equal(typed, generic) || (c.fast && len(typed) == 0) {
			t.Errorf("%s: typed path kept %d rows, generic %d", c.where, len(typed), len(generic))
		}
	}
}
