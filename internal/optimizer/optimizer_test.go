package optimizer

import (
	"fmt"
	"testing"

	"hybriddb/internal/plan"
	"hybriddb/internal/session"
	"hybriddb/internal/sql"
	"hybriddb/internal/stats"
	"hybriddb/internal/storage"
	"hybriddb/internal/table"
	"hybriddb/internal/value"
	"hybriddb/internal/vclock"
)

type fixture struct {
	tables map[string]*table.Table
}

func (f *fixture) ResolveTable(name string) (*table.Table, bool) {
	t, ok := f.tables[name]
	return t, ok
}

func (f *fixture) TableSchema(name string) (*value.Schema, bool) {
	t, ok := f.tables[name]
	if !ok {
		return nil, false
	}
	return t.Schema, true
}

// newFixture builds t(a BIGINT cluster key, b BIGINT, c BIGINT) with
// 20k rows, plus a secondary CSI.
func newFixture(tb testing.TB) *fixture {
	st := storage.NewStore(0)
	sch := value.NewSchema(
		value.Column{Name: "a", Kind: value.KindInt},
		value.Column{Name: "b", Kind: value.KindInt},
		value.Column{Name: "c", Kind: value.KindInt},
	)
	t := table.New(st, "t", sch, nil)
	t.SetRowGroupSize(2048)
	rows := make([]value.Row, 20000)
	for i := range rows {
		rows[i] = value.Row{
			value.NewInt(int64(i)),
			value.NewInt(int64(i % 40)),
			value.NewInt(int64(i % 7)),
		}
	}
	t.BulkLoad(nil, rows)
	t.ConvertPrimary(nil, table.PrimaryBTree, []int{0})
	t.AddSecondaryCSI(nil, "csi")
	return &fixture{tables: map[string]*table.Table{"t": t}}
}

func bindSelect(tb testing.TB, f *fixture, src string) *sql.BoundSelect {
	tb.Helper()
	st, err := sql.ParseOne(src)
	if err != nil {
		tb.Fatal(err)
	}
	b, err := sql.NewBinder(f).BindSelect(st.(*sql.SelectStmt))
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

func optimize(tb testing.TB, f *fixture, src string, opts Options) *plan.Root {
	tb.Helper()
	if opts.Model == nil {
		opts.Model = vclock.DefaultModel(vclock.DRAM)
	}
	root, err := Optimize(f, bindSelect(tb, f, src), opts)
	if err != nil {
		tb.Fatal(err)
	}
	return root
}

func TestAccessPathSelection(t *testing.T) {
	f := newFixture(t)
	selective := optimize(t, f, "SELECT b FROM t WHERE a < 5", Options{})
	if got := plan.LeafAccess(selective.Input); got[0] != plan.AccessClusteredSeek {
		t.Errorf("selective access = %v", got)
	}
	wide := optimize(t, f, "SELECT sum(b) FROM t WHERE a < 19000", Options{})
	if got := plan.LeafAccess(wide.Input); got[0] != plan.AccessCSIScan {
		t.Errorf("wide access = %v", got)
	}
	noCSI := optimize(t, f, "SELECT sum(b) FROM t WHERE a < 19000", Options{ExecOptions: session.ExecOptions{NoColumnstore: true}})
	if got := plan.LeafAccess(noCSI.Input); got[0] == plan.AccessCSIScan {
		t.Errorf("NoColumnstore access = %v", got)
	}
}

func TestEqualityPointSelectivity(t *testing.T) {
	h := stats.BuildHistogram(func() []value.Value {
		out := make([]value.Value, 1000)
		for i := range out {
			out[i] = value.NewInt(int64(i % 40))
		}
		return out
	}(), 16, 1.0)
	r := newColRange()
	r.tightenLo(value.NewInt(7), false)
	r.tightenHi(value.NewInt(7), false)
	got := selOfRange(h, r)
	if got < 0.015 || got > 0.05 {
		t.Errorf("point selectivity = %v, want ~1/40", got)
	}
	// Unbounded range.
	if selOfRange(h, nil) != 1 || selOfRange(h, newColRange()) != 1 {
		t.Error("unbounded range should have selectivity 1")
	}
}

func TestRangeExtraction(t *testing.T) {
	f := newFixture(t)
	b := bindSelect(t, f, "SELECT a FROM t WHERE a >= 10 AND a < 20 AND b = 3 AND c + 1 > 2")
	ranges := extractRanges(b.Conjuncts, 0, 3)
	ra := ranges[0]
	if ra == nil || ra.loOpen || ra.hiOpen || ra.lo.Int() != 10 || ra.hi.Int() != 20 || !ra.hiExcl || ra.loExcl {
		t.Errorf("range a = %+v", ra)
	}
	rb := ranges[1]
	if rb == nil || rb.lo.Int() != 3 || rb.hi.Int() != 3 {
		t.Errorf("range b = %+v", rb)
	}
	if ranges[2] != nil {
		t.Errorf("non-sargable conjunct produced a range: %+v", ranges[2])
	}
	// BETWEEN and flipped literals.
	b2 := bindSelect(t, f, "SELECT a FROM t WHERE a BETWEEN 5 AND 9 AND 100 > b")
	ranges2 := extractRanges(b2.Conjuncts, 0, 3)
	if ranges2[0].lo.Int() != 5 || ranges2[0].hi.Int() != 9 {
		t.Errorf("between = %+v", ranges2[0])
	}
	if ranges2[1].hiOpen || ranges2[1].hi.Int() != 100 || !ranges2[1].hiExcl {
		t.Errorf("flipped = %+v", ranges2[1])
	}
}

func TestClassifyConjuncts(t *testing.T) {
	f := newFixture(t)
	// Two copies of the same table under aliases to exercise joins.
	st := f.tables["t"]
	f.tables["u"] = st
	defer delete(f.tables, "u")
	b := bindSelect(t, f, `SELECT count(*) FROM t, u
		WHERE t.a = u.a AND t.b < 5 AND u.c = 1 AND t.c + u.c > 0`)
	offsets := []int{0, 3}
	widths := []int{3, 3}
	perTable, joins, residual := classify(b.Conjuncts, offsets, widths)
	if len(joins) != 1 || len(residual) != 1 {
		t.Fatalf("joins=%d residual=%d", len(joins), len(residual))
	}
	if len(perTable[0]) != 1 || len(perTable[1]) != 1 {
		t.Fatalf("perTable = %v", perTable)
	}
}

func TestDOPDecision(t *testing.T) {
	f := newFixture(t)
	small := optimize(t, f, "SELECT b FROM t WHERE a < 3", Options{})
	if small.DOP != 1 {
		t.Errorf("small DOP = %d", small.DOP)
	}
	big := optimize(t, f, "SELECT sum(b) FROM t WHERE a >= 0", Options{ExecOptions: session.ExecOptions{NoColumnstore: true}})
	if big.DOP != 40 {
		t.Errorf("big DOP = %d", big.DOP)
	}
}

func TestMemGrantSpillsInCost(t *testing.T) {
	f := newFixture(t)
	q := "SELECT a, count(*) FROM t GROUP BY a"
	free := optimize(t, f, q, Options{})
	limited := optimize(t, f, q, Options{ExecOptions: session.ExecOptions{MemGrant: 16 * 1024, NoColumnstore: true}})
	_, freeCost := free.Estimate()
	_, limCost := limited.Estimate()
	if limCost <= freeCost {
		t.Errorf("limited grant cost %v should exceed unlimited %v", limCost, freeCost)
	}
	if limited.MemGrant != 16*1024 {
		t.Errorf("grant not propagated: %d", limited.MemGrant)
	}
}

func TestChooseDMLScan(t *testing.T) {
	f := newFixture(t)
	tb := f.tables["t"]
	m := vclock.DefaultModel(vclock.DRAM)
	b := bindSelect(t, f, "SELECT a FROM t WHERE a = 77")
	scan := ChooseDMLScan(tb, b.Conjuncts, Options{Model: m})
	if scan.Access != plan.AccessClusteredSeek {
		t.Errorf("DML access = %v", scan.Access)
	}
	rows, _ := scan.Estimate()
	if rows < 0.5 || rows > 10 {
		t.Errorf("DML est rows = %v", rows)
	}
	// No predicate: any full access works.
	scan2 := ChooseDMLScan(tb, nil, Options{Model: m})
	if scan2 == nil {
		t.Fatal("no scan for unfiltered DML")
	}
}

func TestHypotheticalCSIConsidered(t *testing.T) {
	// A table with no columnstore gets one hypothetically; the
	// optimizer must pick it for a scan-heavy query using its metadata.
	st := storage.NewStore(0)
	sch := value.NewSchema(
		value.Column{Name: "a", Kind: value.KindInt},
		value.Column{Name: "b", Kind: value.KindInt},
	)
	tb := table.New(st, "h", sch, nil)
	rows := make([]value.Row, 30000)
	for i := range rows {
		rows[i] = value.Row{value.NewInt(int64(i)), value.NewInt(int64(i % 5))}
	}
	tb.BulkLoad(nil, rows)
	tb.ConvertPrimary(nil, table.PrimaryBTree, []int{0})
	hyp := &table.Secondary{
		Name: "hyp_csi", Columnstore: true, Hypothetical: true,
		EstRows: 30000, EstBytes: 60000,
		ColBytes: []int64{30000, 8000},
	}
	f := &fixture{tables: map[string]*table.Table{"h": tb}}
	const q = "SELECT b, count(*) FROM h GROUP BY b"
	root := optimize(t, f, q, Options{WhatIf: map[*table.Table][]*table.Secondary{tb: {hyp}}})
	if got := plan.LeafAccess(root.Input); got[0] != plan.AccessCSIScan {
		t.Errorf("hypothetical CSI not chosen: %v", got)
	}
	// What-if is an input, not catalog state: the table is untouched and
	// the same query without it plans onto what exists.
	if len(tb.Secondaries) != 0 {
		t.Errorf("what-if index entered the catalog: %v", tb.Secondaries)
	}
	if got := plan.LeafAccess(optimize(t, f, q, Options{}).Input); got[0] == plan.AccessCSIScan {
		t.Errorf("columnstore scan planned with no columnstore: %v", got)
	}
}

// TestNoUncoveredSeekOnClusteredColumnstore: a secondary B+ tree seek
// on a clustered-columnstore table is planned only when it covers the
// query, because there is no key to look the rest of a row up by. The
// rule holds for what-if indexes, for a single table and for the inner
// of a nested-loop join, and NoColumnstore still reads the table
// through its primary.
func TestNoUncoveredSeekOnClusteredColumnstore(t *testing.T) {
	st := storage.NewStore(0)
	mk := func(name string, rows int, row func(i int) value.Row, cols ...string) *table.Table {
		var sch []value.Column
		for _, c := range cols {
			sch = append(sch, value.Column{Name: c, Kind: value.KindInt})
		}
		tb := table.New(st, name, value.NewSchema(sch...), nil)
		data := make([]value.Row, rows)
		for i := range data {
			data[i] = row(i)
		}
		tb.BulkLoad(nil, data)
		return tb
	}
	c := mk("c", 20000, func(i int) value.Row {
		return value.Row{value.NewInt(int64(i)), value.NewInt(int64(i % 2000)), value.NewInt(int64(i % 7))}
	}, "a", "b", "v")
	c.ConvertPrimary(nil, table.PrimaryColumnstore, nil)
	d := mk("d", 200, func(i int) value.Row {
		return value.Row{value.NewInt(int64(i)), value.NewInt(int64(i % 50))}
	}, "x", "y")
	d.ConvertPrimary(nil, table.PrimaryBTree, []int{0})
	f := &fixture{tables: map[string]*table.Table{"c": c, "d": d}}
	onB := func(include ...int) Options {
		hyp := &table.Secondary{Name: "hyp_b", Keys: []int{1}, Include: include, Hypothetical: true, EstRows: 20000}
		return Options{WhatIf: map[*table.Table][]*table.Secondary{c: {hyp}}}
	}
	const point = "SELECT a, v FROM c WHERE b = 3"
	const join = "SELECT x, a FROM d JOIN c ON b = x WHERE y = 1"
	for _, tc := range []struct {
		q, design string
		opts      Options
		seek      bool
	}{
		{point, "hyp_b (b)", onB(), false},
		{point, "hyp_b (b) INCLUDE (a, v)", onB(0, 2), true},
		{join, "hyp_b (b)", onB(), false},
		{join, "hyp_b (b) INCLUDE (a)", onB(0), true},
		{point, "NoColumnstore", Options{ExecOptions: session.ExecOptions{NoColumnstore: true}}, false},
	} {
		leaves := plan.LeafAccess(optimize(t, f, tc.q, tc.opts).Input)
		var seek bool
		for _, a := range leaves {
			seek = seek || a == plan.AccessSecondarySeek
		}
		if seek != tc.seek {
			t.Errorf("%s under %s: leaves %v, want a secondary seek: %v", tc.q, tc.design, leaves, tc.seek)
		}
	}
}

func TestCrossJoinRejected(t *testing.T) {
	f := newFixture(t)
	f.tables["u"] = f.tables["t"]
	defer delete(f.tables, "u")
	b := bindSelect(t, f, "SELECT count(*) FROM t, u WHERE t.a < 5 AND u.b < 5")
	if _, err := Optimize(f, b, Options{Model: vclock.DefaultModel(vclock.DRAM)}); err == nil {
		t.Error("cross join accepted")
	}
}

// joinFixture: small dims and a large fact to steer join strategies.
func joinFixture(tb testing.TB) *fixture {
	st := storage.NewStore(0)
	mk := func(name string, n int, clusterOrd int, cards []int) *table.Table {
		cols := []value.Column{
			{Name: name + "_k", Kind: value.KindInt},
			{Name: name + "_v", Kind: value.KindInt},
		}
		t := table.New(st, name, value.NewSchema(cols...), nil)
		t.SetRowGroupSize(2048)
		rows := make([]value.Row, n)
		for i := range rows {
			rows[i] = value.Row{
				value.NewInt(int64(i % cards[0])),
				value.NewInt(int64(i % cards[1])),
			}
		}
		t.BulkLoad(nil, rows)
		t.ConvertPrimary(nil, table.PrimaryBTree, []int{clusterOrd})
		return t
	}
	return &fixture{tables: map[string]*table.Table{
		"dim":   mk("dim", 100, 0, []int{100, 10}),
		"fact":  mk("fact", 40000, 0, []int{40000, 50}),
		"fact2": mk("fact2", 40000, 0, []int{40000, 50}),
	}}
}

func joinStrategies(root *plan.Root) []plan.JoinStrategy {
	var out []plan.JoinStrategy
	plan.Walk(root.Input, func(n plan.Node) {
		if j, ok := n.(*plan.Join); ok {
			out = append(out, j.Strategy)
		}
	})
	return out
}

func TestJoinStrategySelection(t *testing.T) {
	f := joinFixture(t)
	// Selective dim filter + clustered fact key: index nested loop.
	nl := optimize(t, f, `SELECT count(*) FROM dim JOIN fact ON dim_k = fact_k WHERE dim_v = 3`, Options{})
	if s := joinStrategies(nl); len(s) != 1 || s[0] != plan.JoinNestedLoop {
		t.Errorf("selective join strategies = %v, want nested loop", s)
	}
	// Two large tables clustered on the join columns, no filters:
	// merge join beats both 40k index seeks and a 40k-row hash build.
	mj := optimize(t, f, `SELECT count(*) FROM fact JOIN fact2 ON fact_k = fact2_k`, Options{})
	if s := joinStrategies(mj); len(s) != 1 || s[0] != plan.JoinMerge {
		t.Errorf("co-sorted join strategies = %v, want merge", s)
	}
	// Join on non-clustered columns with wide filters: hash join.
	hj := optimize(t, f, `SELECT count(*) FROM dim JOIN fact ON dim_v = fact_v WHERE dim_k < 95`, Options{})
	if s := joinStrategies(hj); len(s) != 1 || s[0] != plan.JoinHash {
		t.Errorf("unsorted join strategies = %v, want hash", s)
	}
}

func TestResidualFilterNode(t *testing.T) {
	f := joinFixture(t)
	root := optimize(t, f, `SELECT count(*) FROM dim JOIN fact ON dim_k = fact_k
		WHERE dim_v + fact_v > 5`, Options{})
	var hasFilter bool
	plan.Walk(root.Input, func(n plan.Node) {
		if _, ok := n.(*plan.Filter); ok {
			hasFilter = true
		}
	})
	if !hasFilter {
		t.Error("multi-table residual predicate did not produce a Filter node")
	}
}

// TestComparisonConsumersAgree runs the optimizer's two consumers of
// sql.AsComparison — range inference and kernel pushdown — over the six
// conjuncts that exec's and advisor's tests of the same name use, so a
// conjunct means the same thing (mirrored, <> known, NULL refused) to
// all four.
func TestComparisonConsumersAgree(t *testing.T) {
	f := newFixture(t)
	for _, c := range []struct{ where, push, rng string }{
		{"a = 5", "col0=5", "col0[5,5]"},
		{"5 < a", "col0>5", "col0(5,+inf)"},
		{"b <> 3", "col1<>3", ""}, // pushed, but bounds no range
		{"7 >= b", "col1<=7", "col1(-inf,7]"},
		{"a = NULL", "", ""},
		{"a <= b", "", ""},
	} {
		conj := bindSelect(t, f, "SELECT a FROM t WHERE "+c.where).Conjuncts
		_, _, _, ok := sql.AsComparison(conj[0])
		push, rest := splitPushable(conj, 0)
		var gotPush, gotRng string
		for _, p := range push {
			gotPush += fmt.Sprintf("col%d%s%v", p.Col, p.Op, p.Val)
		}
		for ord, r := range extractRanges(conj, 0, 3) {
			lo, hi := "(-inf", "+inf)"
			if !r.loOpen {
				lo = map[bool]string{true: "(", false: "["}[r.loExcl] + r.lo.String()
			}
			if !r.hiOpen {
				hi = r.hi.String() + map[bool]string{true: ")", false: "]"}[r.hiExcl]
			}
			gotRng += fmt.Sprintf("col%d%s,%s", ord, lo, hi)
		}
		if gotPush != c.push || gotRng != c.rng || len(push)+len(rest) != 1 || ok != (len(push) == 1) {
			t.Errorf("%s: push %q (want %q), ranges %q (want %q), rest %v, recognised %v",
				c.where, gotPush, c.push, gotRng, c.rng, rest, ok)
		}
	}
}
