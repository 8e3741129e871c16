package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"hybriddb/internal/plan"
	"hybriddb/internal/table"
	"hybriddb/internal/value"
	"hybriddb/internal/vclock"
)

func newDB(t *testing.T) *Database {
	t.Helper()
	db := New(vclock.DefaultModel(vclock.DRAM), 0)
	db.DefaultRowGroupSize = 4096
	return db
}

func mustExec(t *testing.T, db *Database, q string, opts ...ExecOptions) *Result {
	t.Helper()
	res, err := db.Exec(q, opts...)
	if err != nil {
		t.Fatalf("exec %q: %v", q, err)
	}
	return res
}

// loadT creates table t(col1, col2) with n rows: col1 = i (sequential),
// col2 = i % mod, clustered B+ tree on col1.
func loadT(t *testing.T, db *Database, n, mod int) *table.Table {
	t.Helper()
	mustExec(t, db, "CREATE TABLE t (col1 BIGINT, col2 BIGINT, PRIMARY KEY (col1))")
	tb := db.Table("t")
	rows := make([]value.Row, n)
	for i := range rows {
		rows[i] = value.Row{value.NewInt(int64(i)), value.NewInt(int64(i % mod))}
	}
	tb.BulkLoad(nil, rows)
	return tb
}

func TestCreateInsertSelect(t *testing.T) {
	db := newDB(t)
	mustExec(t, db, "CREATE TABLE u (a BIGINT, b VARCHAR(10), PRIMARY KEY (a))")
	res := mustExec(t, db, "INSERT INTO u VALUES (1, 'x'), (2, 'y'), (3, 'z')")
	if res.RowsAffected != 3 {
		t.Fatalf("inserted %d", res.RowsAffected)
	}
	res = mustExec(t, db, "SELECT a, b FROM u WHERE a >= 2 ORDER BY a")
	if len(res.Rows) != 2 || res.Rows[0][0].Int() != 2 || res.Rows[1][1].Str() != "z" {
		t.Fatalf("rows: %v", res.Rows)
	}
	if res.Columns[0] != "a" || res.Columns[1] != "b" {
		t.Fatalf("columns: %v", res.Columns)
	}
}

func TestQ1AcrossDesigns(t *testing.T) {
	// Q1: SELECT sum(col1) FROM t WHERE col1 < k — correct on every
	// primary design, with the expected access paths.
	const n = 50000
	want := func(k int64) int64 {
		var s int64
		for i := int64(0); i < k; i++ {
			s += i
		}
		return s
	}
	designs := []struct {
		ddl    string
		expect plan.AccessKind
		sel    int64
	}{
		{"", plan.AccessClusteredSeek, 100},                                      // selective -> seek
		{"CREATE CLUSTERED COLUMNSTORE INDEX cci ON t", plan.AccessCSIScan, 100}, // CSI-only
	}
	for _, d := range designs {
		db := newDB(t)
		loadT(t, db, n, 97)
		if d.ddl != "" {
			mustExec(t, db, d.ddl)
		}
		q := fmt.Sprintf("SELECT sum(col1) FROM t WHERE col1 < %d", d.sel)
		res := mustExec(t, db, q)
		if len(res.Rows) != 1 || res.Rows[0][0].Int() != want(d.sel) {
			t.Fatalf("%s: got %v, want %d", d.ddl, res.Rows, want(d.sel))
		}
		leaves := plan.LeafAccess(res.Plan.Input)
		if len(leaves) != 1 || leaves[0] != d.expect {
			t.Errorf("%s: access = %v, want %v", d.ddl, leaves, d.expect)
		}
	}
}

func TestAccessPathSwitchesWithSelectivity(t *testing.T) {
	// With both a clustered B+ tree and a secondary CSI, the optimizer
	// should seek for selective predicates and scan the columnstore for
	// large ones.
	db := newDB(t)
	loadT(t, db, 100000, 11)
	mustExec(t, db, "CREATE NONCLUSTERED COLUMNSTORE INDEX csi ON t")

	selective := mustExec(t, db, "SELECT sum(col1) FROM t WHERE col1 < 50")
	if got := plan.LeafAccess(selective.Plan.Input); got[0] != plan.AccessClusteredSeek {
		t.Errorf("selective: %v", got)
	}
	full := mustExec(t, db, "SELECT sum(col1) FROM t WHERE col1 < 99000")
	if got := plan.LeafAccess(full.Plan.Input); got[0] != plan.AccessCSIScan {
		t.Errorf("full: %v", got)
	}
	// Both return correct sums.
	var w1, w2 int64
	for i := int64(0); i < 50; i++ {
		w1 += i
	}
	for i := int64(0); i < 99000; i++ {
		w2 += i
	}
	if selective.Rows[0][0].Int() != w1 || full.Rows[0][0].Int() != w2 {
		t.Fatalf("sums: %v %v want %d %d", selective.Rows[0][0], full.Rows[0][0], w1, w2)
	}
}

func TestGroupByStrategies(t *testing.T) {
	db := newDB(t)
	loadT(t, db, 20000, 50)
	// Group by the cluster key -> stream aggregate.
	res := mustExec(t, db, "SELECT col1, count(*) FROM t GROUP BY col1")
	var hasStream bool
	plan.Walk(res.Plan.Input, func(n plan.Node) {
		if a, ok := n.(*plan.Agg); ok && a.Strategy == plan.AggStream {
			hasStream = true
		}
	})
	if !hasStream {
		t.Error("group by cluster key did not use stream aggregate")
	}
	if len(res.Rows) != 20000 {
		t.Fatalf("groups = %d", len(res.Rows))
	}
	// Group by non-key -> hash aggregate, correct counts.
	res = mustExec(t, db, "SELECT col2, count(*), sum(col1) FROM t GROUP BY col2")
	if len(res.Rows) != 50 {
		t.Fatalf("groups = %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r[1].Int() != 400 { // 20000/50
			t.Fatalf("group %v count = %v", r[0], r[1])
		}
	}
}

func TestOrderByAndTop(t *testing.T) {
	db := newDB(t)
	loadT(t, db, 1000, 7)
	res := mustExec(t, db, "SELECT TOP 5 col1, col2 FROM t ORDER BY col2 DESC, col1 ASC")
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[0][1].Int() != 6 {
		t.Fatalf("first row %v", res.Rows[0])
	}
	for i := 1; i < 5; i++ {
		if res.Rows[i][1].Int() > res.Rows[i-1][1].Int() {
			t.Fatal("not sorted desc")
		}
	}
	// ORDER BY on the cluster key avoids a Sort node.
	res = mustExec(t, db, "SELECT col1 FROM t ORDER BY col1")
	var hasSort bool
	plan.Walk(res.Plan.Input, func(n plan.Node) {
		if _, ok := n.(*plan.Sort); ok {
			hasSort = true
		}
	})
	if hasSort {
		t.Error("order by cluster key produced a Sort node")
	}
	for i, r := range res.Rows {
		if r[0].Int() != int64(i) {
			t.Fatalf("row %d = %v", i, r)
		}
	}
}

func TestJoins(t *testing.T) {
	db := newDB(t)
	mustExec(t, db, "CREATE TABLE orders (o_id BIGINT, o_cust BIGINT, PRIMARY KEY (o_id))")
	mustExec(t, db, "CREATE TABLE lines (l_id BIGINT, l_order BIGINT, l_qty BIGINT, PRIMARY KEY (l_id))")
	ot := db.Table("orders")
	lt := db.Table("lines")
	var orows, lrows []value.Row
	for i := 0; i < 500; i++ {
		orows = append(orows, value.Row{value.NewInt(int64(i)), value.NewInt(int64(i % 20))})
	}
	for i := 0; i < 5000; i++ {
		lrows = append(lrows, value.Row{value.NewInt(int64(i)), value.NewInt(int64(i % 500)), value.NewInt(int64(i % 7))})
	}
	ot.BulkLoad(nil, orows)
	lt.BulkLoad(nil, lrows)

	res := mustExec(t, db, `SELECT o_cust, count(*) FROM orders JOIN lines ON o_id = l_order
		WHERE o_cust = 3 GROUP BY o_cust`)
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 3 {
		t.Fatalf("rows: %v", res.Rows)
	}
	// 25 orders with o_cust=3, each with 10 lines.
	if res.Rows[0][1].Int() != 250 {
		t.Fatalf("count = %v, want 250", res.Rows[0][1])
	}
	// Three-way-ish: comma join with where.
	res2 := mustExec(t, db, `SELECT count(*) FROM orders o, lines l WHERE o.o_id = l.l_order AND l.l_qty = 2`)
	want := 0
	for i := 0; i < 5000; i++ {
		if i%7 == 2 {
			want++
		}
	}
	if res2.Rows[0][0].Int() != int64(want) {
		t.Fatalf("join count = %v, want %d", res2.Rows[0][0], want)
	}
}

func TestUpdateDelete(t *testing.T) {
	db := newDB(t)
	loadT(t, db, 1000, 10)
	res := mustExec(t, db, "UPDATE TOP (10) t SET col2 += 100 WHERE col2 = 5")
	if res.RowsAffected != 10 {
		t.Fatalf("updated %d", res.RowsAffected)
	}
	check := mustExec(t, db, "SELECT count(*) FROM t WHERE col2 = 105")
	if check.Rows[0][0].Int() != 10 {
		t.Fatalf("after update: %v", check.Rows)
	}
	res = mustExec(t, db, "DELETE FROM t WHERE col2 = 105")
	if res.RowsAffected != 10 {
		t.Fatalf("deleted %d", res.RowsAffected)
	}
	check = mustExec(t, db, "SELECT count(*) FROM t")
	if check.Rows[0][0].Int() != 990 {
		t.Fatalf("count after delete: %v", check.Rows)
	}
}

func TestUpdateOnColumnstoreDesign(t *testing.T) {
	db := newDB(t)
	loadT(t, db, 5000, 10)
	mustExec(t, db, "CREATE NONCLUSTERED COLUMNSTORE INDEX csi ON t")
	mustExec(t, db, "UPDATE TOP (5) t SET col2 += 1 WHERE col1 < 100")
	// The secondary CSI sees the updates through its delete buffer and
	// delta store; scans remain correct.
	res := mustExec(t, db, "SELECT sum(col2) FROM t WHERE col1 < 99999")
	var want int64
	for i := 0; i < 5000; i++ {
		want += int64(i % 10)
		if i < 5 {
			want++
		}
	}
	if res.Rows[0][0].Int() != want {
		t.Fatalf("sum = %v, want %d", res.Rows[0][0], want)
	}
}

func TestMemGrantForcesSpill(t *testing.T) {
	db := newDB(t)
	rng := rand.New(rand.NewSource(1))
	mustExec(t, db, "CREATE TABLE g (k BIGINT, v BIGINT, PRIMARY KEY (k))")
	rows := make([]value.Row, 50000)
	for i := range rows {
		rows[i] = value.Row{value.NewInt(int64(i)), value.NewInt(rng.Int63n(40000))}
	}
	db.Table("g").BulkLoad(nil, rows)
	q := "SELECT v, count(*) FROM g GROUP BY v"
	free := mustExec(t, db, q)
	limited := mustExec(t, db, q, ExecOptions{MemGrant: 64 * 1024})
	if len(free.Rows) != len(limited.Rows) {
		t.Fatalf("row mismatch: %d vs %d", len(free.Rows), len(limited.Rows))
	}
	if limited.Metrics.DataWrite == 0 {
		t.Error("limited grant did not spill")
	}
	if limited.Metrics.ExecTime <= free.Metrics.ExecTime {
		t.Errorf("spill exec %v should exceed in-memory %v", limited.Metrics.ExecTime, free.Metrics.ExecTime)
	}
	if free.Metrics.MemPeak <= limited.Metrics.MemPeak {
		t.Errorf("grant did not bound memory: free=%d limited=%d", free.Metrics.MemPeak, limited.Metrics.MemPeak)
	}
}

func TestDOPSwitch(t *testing.T) {
	db := newDB(t)
	loadT(t, db, 200000, 13)
	selective := mustExec(t, db, "SELECT sum(col1) FROM t WHERE col1 < 10")
	if selective.Plan.DOP != 1 {
		t.Errorf("selective DOP = %d, want 1", selective.Plan.DOP)
	}
	big := mustExec(t, db, "SELECT sum(col1) FROM t WHERE col1 < 190000")
	if big.Plan.DOP != db.Model().MaxDOP {
		t.Errorf("big DOP = %d, want %d", big.Plan.DOP, db.Model().MaxDOP)
	}
	if big.Metrics.CPUTime <= big.Metrics.ExecTime {
		t.Errorf("parallel plan cpu %v should exceed elapsed %v", big.Metrics.CPUTime, big.Metrics.ExecTime)
	}
}

func TestSecondaryIndexCoveredSeek(t *testing.T) {
	db := newDB(t)
	loadT(t, db, 20000, 100)
	mustExec(t, db, "CREATE NONCLUSTERED INDEX ix2 ON t (col2) INCLUDE (col1)")
	res := mustExec(t, db, "SELECT sum(col1) FROM t WHERE col2 = 5")
	leaves := plan.LeafAccess(res.Plan.Input)
	if leaves[0] != plan.AccessSecondarySeek {
		t.Errorf("access = %v", leaves)
	}
	var want int64
	for i := 0; i < 20000; i++ {
		if i%100 == 5 {
			want += int64(i)
		}
	}
	if res.Rows[0][0].Int() != want {
		t.Fatalf("sum = %v, want %d", res.Rows[0][0], want)
	}
}

// TestBTreeOnlyOptionOnClusteredColumnstore runs statements against a
// clustered-columnstore table with and without NoColumnstore, each on
// its own copy of the table, filtering on col1, which no index leads
// with, and on col2, which an uncovered B+ tree secondary does:
// NoColumnstore drops columnstore indexes, not the table's only
// copy of its rows, so every statement must return the same rows,
// affect the same rows and leave the same table.
func TestBTreeOnlyOptionOnClusteredColumnstore(t *testing.T) {
	build := func() *Database {
		db := newDB(t)
		loadT(t, db, 20000, 100)
		mustExec(t, db, "CREATE CLUSTERED COLUMNSTORE INDEX cci ON t")
		mustExec(t, db, "CREATE NONCLUSTERED INDEX ix2 ON t (col2)")
		return db
	}
	const check = "SELECT col1, col2 FROM t ORDER BY col1"
	for _, q := range []string{
		"SELECT col1, col2 FROM t WHERE col1 < 200",
		"UPDATE t SET col2 = col2 + 1000 WHERE col1 >= 500 AND col1 < 700",
		"DELETE FROM t WHERE col1 >= 1000 AND col1 < 1200",
		"SELECT col1, col2 FROM t WHERE col2 = 5 ORDER BY col1",
		"UPDATE t SET col1 = col1 + 100000 WHERE col2 = 7",
		"DELETE FROM t WHERE col2 = 9",
	} {
		with, without := build(), build()
		a := mustExec(t, with, q)
		b := mustExec(t, without, q, ExecOptions{NoColumnstore: true})
		if !reflect.DeepEqual(a.Rows, b.Rows) || a.RowsAffected != b.RowsAffected {
			t.Errorf("%s: NoColumnstore gives %d rows, %d affected; without it %d rows, %d affected",
				q, len(b.Rows), b.RowsAffected, len(a.Rows), a.RowsAffected)
		}
		if len(a.Rows)+int(a.RowsAffected) != 200 {
			t.Errorf("%s: %d rows, %d affected, want 200 in all", q, len(a.Rows), a.RowsAffected)
		}
		if !reflect.DeepEqual(mustExec(t, with, check).Rows, mustExec(t, without, check).Rows) {
			t.Errorf("%s: the tables differ after it", q)
		}
	}
}

func TestBTreeOnlyOption(t *testing.T) {
	db := newDB(t)
	loadT(t, db, 30000, 10)
	mustExec(t, db, "CREATE NONCLUSTERED COLUMNSTORE INDEX csi ON t")
	q := "SELECT sum(col2) FROM t WHERE col1 < 29000"
	with := mustExec(t, db, q)
	without := mustExec(t, db, q, ExecOptions{NoColumnstore: true})
	if plan.LeafAccess(with.Plan.Input)[0] != plan.AccessCSIScan {
		t.Errorf("hybrid plan: %v", plan.LeafAccess(with.Plan.Input))
	}
	if plan.LeafAccess(without.Plan.Input)[0] == plan.AccessCSIScan {
		t.Error("NoColumnstore still chose CSI")
	}
	if with.Rows[0][0].Int() != without.Rows[0][0].Int() {
		t.Fatal("results differ")
	}
	if with.Metrics.CPUTime >= without.Metrics.CPUTime {
		t.Errorf("CSI cpu %v should beat b+tree %v on a large scan", with.Metrics.CPUTime, without.Metrics.CPUTime)
	}
}

func TestErrorPaths(t *testing.T) {
	db := newDB(t)
	loadT(t, db, 10, 3)
	bad := []string{
		"SELECT nope FROM t",
		"SELECT col1 FROM missing",
		"CREATE TABLE t (x BIGINT)", // duplicate
		"DROP INDEX nothere ON t",
		"CREATE INDEX ix ON missing (a)",
		"completely invalid",
	}
	for _, q := range bad {
		if _, err := db.Exec(q); err == nil {
			t.Errorf("%q should fail", q)
		}
	}
}

func TestExplainString(t *testing.T) {
	db := newDB(t)
	loadT(t, db, 1000, 5)
	res := mustExec(t, db, "SELECT col2, count(*) FROM t WHERE col1 < 500 GROUP BY col2 ORDER BY col2")
	s := ExplainString(res.Plan)
	for _, want := range []string{"Project", "Aggregate", "rows="} {
		if !strings.Contains(s, want) {
			t.Errorf("explain missing %q:\n%s", want, s)
		}
	}
}

func TestHotColdExecution(t *testing.T) {
	db := New(vclock.DefaultModel(vclock.HDD), 0)
	db.DefaultRowGroupSize = 4096
	loadT(t, db, 100000, 10)
	q := "SELECT sum(col1) FROM t WHERE col1 < 90000"
	db.Store().Cool()
	cold := mustExec(t, db, q)
	hot := mustExec(t, db, q) // pages now resident
	if cold.Metrics.DataRead == 0 || hot.Metrics.DataRead != 0 {
		t.Errorf("cold read %d, hot read %d", cold.Metrics.DataRead, hot.Metrics.DataRead)
	}
	if cold.Metrics.ExecTime <= hot.Metrics.ExecTime {
		t.Errorf("cold %v should exceed hot %v", cold.Metrics.ExecTime, hot.Metrics.ExecTime)
	}
	if cold.Rows[0][0].Int() != hot.Rows[0][0].Int() {
		t.Fatal("results differ")
	}
}

func TestMergeJoinChosenForCoSortedTables(t *testing.T) {
	// Two tables clustered on their join columns with near-total join
	// coverage: the optimizer should pick a merge join over hash and
	// nested loops.
	db := newDB(t)
	mustExec(t, db, "CREATE TABLE ml (mk BIGINT, mv BIGINT, PRIMARY KEY (mk))")
	mustExec(t, db, "CREATE TABLE mr (rk BIGINT, rv BIGINT, PRIMARY KEY (rk))")
	var lrows, rrows []value.Row
	for i := 0; i < 30000; i++ {
		lrows = append(lrows, value.Row{value.NewInt(int64(i)), value.NewInt(int64(i % 5))})
		rrows = append(rrows, value.Row{value.NewInt(int64(i)), value.NewInt(int64(i % 9))})
	}
	db.Table("ml").BulkLoad(nil, lrows)
	db.Table("mr").BulkLoad(nil, rrows)

	res := mustExec(t, db, "SELECT count(*), sum(rv) FROM ml JOIN mr ON mk = rk")
	var strategies []plan.JoinStrategy
	plan.Walk(res.Plan.Input, func(n plan.Node) {
		if j, ok := n.(*plan.Join); ok {
			strategies = append(strategies, j.Strategy)
		}
	})
	if len(strategies) != 1 || strategies[0] != plan.JoinMerge {
		t.Errorf("join strategies = %v, want [MergeJoin]", strategies)
	}
	if res.Rows[0][0].Int() != 30000 {
		t.Fatalf("count = %v", res.Rows[0][0])
	}
	var wantSum int64
	for i := 0; i < 30000; i++ {
		wantSum += int64(i % 9)
	}
	if res.Rows[0][1].Int() != wantSum {
		t.Fatalf("sum = %v want %d", res.Rows[0][1], wantSum)
	}
}

func TestDropTable(t *testing.T) {
	db := newDB(t)
	loadT(t, db, 10, 3)
	mustExec(t, db, "DROP TABLE t")
	if db.Table("t") != nil {
		t.Fatal("table still present")
	}
	if n := db.store.TotalBytes(); n != 0 {
		t.Fatalf("dropped table left %d bytes in the store", n)
	}
	if _, err := db.Exec("SELECT count(*) FROM t"); err == nil {
		t.Fatal("query on dropped table succeeded")
	}
	if _, err := db.Exec("DROP TABLE t"); err == nil {
		t.Fatal("double drop succeeded")
	}
	// Name can be reused.
	mustExec(t, db, "CREATE TABLE t (x BIGINT, PRIMARY KEY (x))")
	mustExec(t, db, "INSERT INTO t VALUES (1)")
}
