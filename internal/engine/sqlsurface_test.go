package engine

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"hybriddb/internal/metrics"
	"hybriddb/internal/value"
)

// TestSQLSurface exercises the wider SQL subset end to end: IN lists,
// IS NULL, BETWEEN over dates, DISTINCT aggregates, aliases, and
// arithmetic in projections.
func TestSQLSurface(t *testing.T) {
	db := newDB(t)
	mustExec(t, db, `CREATE TABLE ev (id BIGINT, kind VARCHAR(8), amt DOUBLE, dday DATE, PRIMARY KEY (id))`)
	tb := db.Table("ev")
	kinds := []string{"click", "view", "buy"}
	rows := make([]value.Row, 900)
	for i := range rows {
		amt := value.NewFloat(float64(i%50) + 0.25)
		if i%90 == 0 {
			amt = value.Null
		}
		rows[i] = value.Row{
			value.NewInt(int64(i)),
			value.NewString(kinds[i%3]),
			amt,
			value.NewDate(10000 + int64(i%30)),
		}
	}
	tb.BulkLoad(nil, rows)

	res := mustExec(t, db, "SELECT count(*) FROM ev WHERE kind IN ('click', 'buy')")
	if res.Rows[0][0].Int() != 600 {
		t.Fatalf("IN: %v", res.Rows)
	}
	res = mustExec(t, db, "SELECT count(*) FROM ev WHERE kind NOT IN ('click', 'buy')")
	if res.Rows[0][0].Int() != 300 {
		t.Fatalf("NOT IN: %v", res.Rows)
	}
	res = mustExec(t, db, "SELECT count(*) FROM ev WHERE amt IS NULL")
	if res.Rows[0][0].Int() != 10 {
		t.Fatalf("IS NULL: %v", res.Rows)
	}
	res = mustExec(t, db, "SELECT count(amt) FROM ev")
	if res.Rows[0][0].Int() != 890 {
		t.Fatalf("count(col) skips NULLs: %v", res.Rows)
	}
	res = mustExec(t, db, "SELECT count(DISTINCT kind) FROM ev WHERE amt IS NOT NULL")
	if res.Rows[0][0].Int() != 3 {
		t.Fatalf("DISTINCT: %v", res.Rows)
	}
	res = mustExec(t, db, `SELECT count(*) FROM ev WHERE dday BETWEEN '1997-05-24' AND DATEADD(day, 2, '1997-05-24')`)
	if res.Rows[0][0].Int() != 90 {
		t.Fatalf("date BETWEEN: %v (day range)", res.Rows)
	}
	res = mustExec(t, db, "SELECT kind k, avg(amt) a FROM ev GROUP BY kind ORDER BY k")
	if len(res.Rows) != 3 || res.Columns[0] != "k" || res.Rows[0][0].Str() != "buy" {
		t.Fatalf("alias/order: %v %v", res.Columns, res.Rows)
	}
	res = mustExec(t, db, "SELECT id, amt * 2 + 1 FROM ev WHERE id = 5")
	want := (float64(5%50)+0.25)*2 + 1
	if res.Rows[0][1].Float() != want {
		t.Fatalf("arithmetic projection: %v want %v", res.Rows[0][1], want)
	}
	// Scalar aggregate over empty input returns one row.
	res = mustExec(t, db, "SELECT count(*), sum(amt), min(amt) FROM ev WHERE id = 123456")
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 0 || !res.Rows[0][1].IsNull() {
		t.Fatalf("empty scalar agg: %v", res.Rows)
	}
	// OR and NOT in predicates.
	res = mustExec(t, db, "SELECT count(*) FROM ev WHERE id < 10 OR id >= 890")
	if res.Rows[0][0].Int() != 20 {
		t.Fatalf("OR: %v", res.Rows)
	}
	res = mustExec(t, db, "SELECT count(*) FROM ev WHERE NOT (id < 890)")
	if res.Rows[0][0].Int() != 10 {
		t.Fatalf("NOT: %v", res.Rows)
	}
	// A column compared with a literal it cannot hold is a bind error
	// (this used to count every row), in SELECT and in DML alike.
	const crossKind = "sql: cannot compare VARCHAR column kind with BIGINT literal 1"
	for _, q := range []string{
		"SELECT count(*) FROM ev WHERE kind > 1",
		"SELECT count(*) FROM ev WHERE 1 < kind",
		"DELETE FROM ev WHERE kind > 1",
		"UPDATE ev SET amt = 0 WHERE kind > 1",
	} {
		if _, err := db.Exec(q); err == nil || err.Error() != crossKind {
			t.Fatalf("%s: err = %v, want %s", q, err, crossKind)
		}
	}
}

// TestDDLRejectsIllegalDesigns: DDL that would break a table's design
// rules — one name per column, one columnstore per table (paper §4.3),
// one name per index — fails as an ordinary error before any table is
// touched, instead of panicking at the statement boundary or quietly
// building the illegal design.
func TestDDLRejectsIllegalDesigns(t *testing.T) {
	db := newDB(t)
	for _, name := range []string{"h", "c"} {
		mustExec(t, db, "CREATE TABLE "+name+" (a BIGINT, b BIGINT)")
		mustExec(t, db, "INSERT INTO "+name+" VALUES (1, 2), (3, 4)")
	}
	mustExec(t, db, "CREATE CLUSTERED COLUMNSTORE INDEX cci ON c")
	mustExec(t, db, "CREATE NONCLUSTERED COLUMNSTORE INDEX ncci ON h")
	mustExec(t, db, "CREATE INDEX ix ON h (a)")
	design := func(name string) string {
		tb := db.Table(name)
		out := tb.Primary().String()
		for _, s := range tb.Secondaries {
			out += " " + s.Name
		}
		return out
	}
	const panics = "hybriddb_statement_panics_total"
	for _, c := range []struct{ stmt, table, msg string }{
		{"CREATE TABLE d (a BIGINT, a BIGINT)", "", `column "a" appears twice in table "d"`},
		{"CREATE NONCLUSTERED COLUMNSTORE INDEX ncci2 ON h", "h", `"h" already has columnstore index "ncci"`},
		{"CREATE NONCLUSTERED COLUMNSTORE INDEX ncci ON c", "c", `"c" is a clustered columnstore`},
		{"CREATE CLUSTERED COLUMNSTORE INDEX cci ON h", "h", `"h" already has columnstore index "ncci"`},
		{"CREATE INDEX ix ON h (b)", "h", `index "ix" already exists on "h"`},
	} {
		var before string
		if c.table != "" {
			before = design(c.table)
		}
		p0 := metrics.Default().Snapshot()[panics]
		_, err := db.Exec(c.stmt)
		if err == nil || !strings.Contains(err.Error(), c.msg) {
			t.Errorf("%s: err = %v, want one containing %s", c.stmt, err, c.msg)
		}
		if got := metrics.Default().Snapshot()[panics] - p0; got != 0 {
			t.Errorf("%s: %s rose by %v", c.stmt, panics, got)
		}
		if c.table == "" {
			if db.Table("d") != nil {
				t.Errorf("%s: table created", c.stmt)
			}
		} else if after := design(c.table); after != before {
			t.Errorf("%s: design of %s changed from %q to %q", c.stmt, c.table, before, after)
		}
	}
	// One DROP removes the one index of that name.
	mustExec(t, db, "DROP INDEX ix ON h")
	if got := design("h"); got != "heap ncci" {
		t.Errorf("after DROP INDEX: design of h = %q", got)
	}
}

// TestTopZero checks TOP 0 means zero rows, as in SQL Server, and not
// "no TOP": SELECT (bare, and with ORDER BY over a morsel-driven sort)
// returns nothing, UPDATE and DELETE affect nothing, and the table is
// unchanged — on a B+ tree, a clustered and a nonclustered columnstore.
func TestTopZero(t *testing.T) {
	for _, design := range []string{
		"",
		"CREATE CLUSTERED COLUMNSTORE INDEX cci ON t",
		"CREATE NONCLUSTERED COLUMNSTORE INDEX ncci ON t",
	} {
		db := newDB(t)
		db.DefaultRowGroupSize = 256
		mustExec(t, db, "CREATE TABLE t (id BIGINT, v BIGINT, PRIMARY KEY (id))")
		vals := make([]string, 2000)
		for i := range vals {
			vals[i] = fmt.Sprintf("(%d, %d)", i, i%9)
		}
		mustExec(t, db, "INSERT INTO t VALUES "+strings.Join(vals, ", "))
		if design != "" {
			mustExec(t, db, design)
			// At DOP 8 the ORDER BY below runs as the morsel-driven sort
			// with TOP fused above it.
			ex := mustExec(t, db, "EXPLAIN ANALYZE SELECT TOP 0 id, v FROM t ORDER BY v DESC", ExecOptions{Parallelism: 8})
			srt := ex.Trace.Children[0].Children[0].Children[0]
			if _, ok := srt.Attr("parallel_sort_merge_ns"); srt.Name != "Sort" || !ok {
				t.Fatalf("[%s]: TOP 0 ORDER BY did not run the morsel sort: %s %v", design, srt.Name, srt.Attrs)
			}
		}
		const all = "SELECT id, v FROM t ORDER BY id"
		before := mustExec(t, db, all).Rows
		for _, opts := range []ExecOptions{{Parallelism: 1}, {Parallelism: 8}} {
			for _, q := range []string{
				"SELECT TOP 0 id FROM t",
				"SELECT TOP 0 id, v FROM t WHERE v > 2",
				"SELECT TOP 0 id, v FROM t ORDER BY v DESC",
				"SELECT TOP (0) v, count(*) FROM t GROUP BY v ORDER BY v",
			} {
				if res := mustExec(t, db, q, opts); len(res.Rows) != 0 {
					t.Errorf("%q [%s] dop %d: %d rows, want 0", q, design, opts.Parallelism, len(res.Rows))
				}
			}
			for _, q := range []string{
				"UPDATE TOP (0) t SET v = 0",
				"UPDATE TOP 0 t SET v = v + 1 WHERE id < 10",
				"DELETE TOP (0) FROM t",
				"DELETE TOP 0 FROM t WHERE v = 3",
			} {
				if res := mustExec(t, db, q, opts); res.RowsAffected != 0 {
					t.Errorf("%q [%s] dop %d: %d rows affected, want 0", q, design, opts.Parallelism, res.RowsAffected)
				}
			}
		}
		if after := mustExec(t, db, all).Rows; !reflect.DeepEqual(after, before) {
			t.Errorf("[%s]: TOP 0 statements changed the table: %d rows, was %d", design, len(after), len(before))
		}
		// TOP 1 still limits, so the cut above is TOP 0's own.
		if res := mustExec(t, db, "DELETE TOP (1) FROM t WHERE v = 3"); res.RowsAffected != 1 {
			t.Errorf("[%s]: DELETE TOP (1) affected %d rows", design, res.RowsAffected)
		}
	}
}
