package engine

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"hybriddb/internal/plan"
	"hybriddb/internal/value"
	"hybriddb/internal/vclock"
)

// typedDB builds t(a BIGINT, b BIGINT, f DOUBLE, s VARCHAR, d DATE) with
// 50 rows and u(g DOUBLE, k BIGINT) with 5000, a = f = g = k = i, under
// one physical design.
func typedDB(t *testing.T, ddl []string) *Database {
	t.Helper()
	db := New(vclock.DefaultModel(vclock.DRAM), 0)
	db.DefaultRowGroupSize = 512
	mustExec(t, db, "CREATE TABLE t (a BIGINT, b BIGINT, f DOUBLE, s VARCHAR(8), d DATE)")
	mustExec(t, db, "CREATE TABLE u (g DOUBLE, k BIGINT)")
	var tr, ur []value.Row
	for i := 0; i < 5000; i++ {
		if i < 50 {
			tr = append(tr, value.Row{value.NewInt(int64(i)), value.NewInt(int64(i % 7)),
				value.NewFloat(float64(i)), value.NewString(fmt.Sprintf("x%d", i)), value.NewDate(int64(10000 + i))})
		}
		ur = append(ur, value.Row{value.NewFloat(float64(i)), value.NewInt(int64(i))})
	}
	db.Table("t").BulkLoad(nil, tr)
	db.Table("u").BulkLoad(nil, ur)
	for _, q := range ddl {
		mustExec(t, db, q)
	}
	return db
}

// TestIllTypedUpdateRejected: an UPDATE whose SET value cannot be
// stored in its column is a bind error on every design, and the table
// answers as before. Before typed bind, SET s = a + 1 put a BIGINT into
// a columnstore's VARCHAR delta column and every later read of t
// panicked; SET b = s stored a VARCHAR in a BIGINT column.
func TestIllTypedUpdateRejected(t *testing.T) {
	for _, d := range []struct {
		name string
		ddl  []string
	}{
		{"btree", []string{"CREATE CLUSTERED INDEX cix ON t (a)"}},
		{"cci", []string{"CREATE CLUSTERED COLUMNSTORE INDEX cci ON t"}},
		{"ncci", []string{"CREATE CLUSTERED INDEX cix ON t (a)", "CREATE NONCLUSTERED COLUMNSTORE INDEX csi ON t"}},
	} {
		db := typedDB(t, d.ddl)
		for _, q := range []string{"UPDATE t SET s = a + 1 WHERE a = 3", "UPDATE t SET b = s"} {
			if _, err := db.Exec(q); err == nil {
				t.Errorf("%s: %s succeeded", d.name, q)
			}
		}
		if n := mustExec(t, db, "SELECT COUNT(*) FROM t").Rows[0][0].Int(); n != 50 {
			t.Errorf("%s: count = %d", d.name, n)
		}
		rows := mustExec(t, db, "SELECT a, s, b FROM t WHERE a = 3").Rows
		if len(rows) != 1 || rows[0][1].Str() != "x3" || rows[0][2].Int() != 3 {
			t.Errorf("%s: row 3 = %v", d.name, rows)
		}
		// BIGINT into DOUBLE is an assignment: it stores a DOUBLE.
		mustExec(t, db, "UPDATE t SET f = a + 100 WHERE a = 3")
		rows = mustExec(t, db, "SELECT f FROM t WHERE a = 3").Rows
		if len(rows) != 1 || rows[0][0].Kind() != value.KindFloat || rows[0][0].Float() != 103 {
			t.Errorf("%s: f after SET f = a + 100: %v", d.name, rows)
		}
	}
}

// TestMixedNumericJoin: a BIGINT = DOUBLE equijoin matches the rows the
// same comparison selects as a filter. The hash join keys both sides in
// DOUBLE; before, it encoded each side in its own kind (B+ tree design:
// a wrong count) or read a float vector as int64 (columnstore: a panic).
func TestMixedNumericJoin(t *testing.T) {
	for _, d := range []struct {
		name string
		ddl  []string
	}{
		{"btree", []string{
			"CREATE CLUSTERED INDEX cix ON t (a)", "CREATE NONCLUSTERED INDEX ixf ON t (f)",
			"CREATE CLUSTERED INDEX cix ON u (k)", "CREATE NONCLUSTERED INDEX ixg ON u (g)",
		}},
		{"cci", []string{"CREATE CLUSTERED COLUMNSTORE INDEX cci ON t", "CREATE CLUSTERED COLUMNSTORE INDEX cci ON u"}},
	} {
		db := typedDB(t, d.ddl)
		for _, q := range []struct{ join, filter string }{
			{"SELECT COUNT(*) FROM t, u WHERE t.a = u.g", "SELECT COUNT(*) FROM t WHERE a = f"},
			{"SELECT COUNT(*) FROM t, u WHERE t.f = u.k", "SELECT COUNT(*) FROM t WHERE f = a"},
			{"SELECT COUNT(*) FROM t, u WHERE u.g = t.a AND t.b < 7", "SELECT COUNT(*) FROM t WHERE a = f AND b < 7"},
			// Selective outer, indexed inner: a nested-loop join's seek
			// would match encoded keys of two different kinds.
			{"SELECT COUNT(*) FROM t, u WHERE t.a = u.g AND t.a < 3", "SELECT COUNT(*) FROM t WHERE a = f AND a < 3"},
		} {
			want := mustExec(t, db, q.filter).Rows[0][0].Int()
			res, err := db.Exec(q.join)
			if err != nil {
				t.Errorf("%s: %s: %v", d.name, q.join, err)
				continue
			}
			if n := res.Rows[0][0].Int(); n != want || want == 0 {
				t.Errorf("%s: %s = %d, filter form %d", d.name, q.join, n, want)
			}
		}
	}
}

// TestNegativeZeroKeys: −0.0 and +0.0 compare equal, so they are one
// join key, one group, one distinct value and one index key, as they
// are one value to WHERE f = 0.0 over a scan. Before, value.EncodeKey
// kept the sign bit: the join found 2 of the 4 pairs and, keyed on f
// with a.k = b.k beside it, 0 of 2; GROUP BY and COUNT(DISTINCT) saw
// two values; a secondary-index seek for 0.0 found one of two rows.
func TestNegativeZeroKeys(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, d := range []struct {
		name string
		ddl  []string
		seek bool // a has a B+ tree on f, and WHERE f = 0.0 seeks it
	}{
		{"btree", []string{"CREATE CLUSTERED INDEX cia ON a (k)", "CREATE NONCLUSTERED INDEX ixf ON a (f)",
			"CREATE CLUSTERED INDEX cib ON b (k)"}, true},
		{"cci", []string{"CREATE CLUSTERED COLUMNSTORE INDEX ccia ON a", "CREATE CLUSTERED COLUMNSTORE INDEX ccib ON b"}, false},
	} {
		db := New(vclock.DefaultModel(vclock.DRAM), 0)
		mustExec(t, db, "CREATE TABLE a (k BIGINT, f DOUBLE)")
		mustExec(t, db, "CREATE TABLE b (k BIGINT, g DOUBLE)")
		// k 1 and 2 hold the zeros, signs crossed between the tables; the
		// other rows' f and g never meet.
		ar := []value.Row{{value.NewInt(1), value.NewFloat(negZero)}, {value.NewInt(2), value.NewFloat(0)}}
		br := []value.Row{{value.NewInt(1), value.NewFloat(0)}, {value.NewInt(2), value.NewFloat(negZero)}}
		for i := 3; i <= 1000; i++ {
			ar = append(ar, value.Row{value.NewInt(int64(i)), value.NewFloat(float64(i))})
			br = append(br, value.Row{value.NewInt(int64(i)), value.NewFloat(float64(i) + 0.5)})
		}
		db.Table("a").BulkLoad(nil, ar)
		db.Table("b").BulkLoad(nil, br)
		for _, q := range d.ddl {
			mustExec(t, db, q)
		}
		checks := []struct {
			q    string
			want int64
		}{
			{"SELECT count(*) FROM a JOIN b ON f = g", 4},
			{"SELECT count(*) FROM a JOIN b ON f = g AND a.k = b.k", 2},
			{"SELECT count(DISTINCT f) FROM a WHERE k <= 2", 1},
		}
		if d.seek {
			checks = append(checks, struct {
				q    string
				want int64
			}{"SELECT count(*) FROM a WHERE f = 0.0", 2})
		}
		for _, c := range checks {
			res := mustExec(t, db, c.q)
			if n := res.Rows[0][0].Int(); n != c.want {
				t.Errorf("%s: %s = %d, want %d", d.name, c.q, n, c.want)
			}
			if d.seek && strings.Contains(c.q, "f = 0.0") {
				if acc := plan.LeafAccess(res.Plan); len(acc) != 1 || acc[0] != plan.AccessSecondarySeek {
					t.Errorf("%s: %s ran %v, want a SecondarySeek", d.name, c.q, acc)
				}
			}
		}
		if rows := mustExec(t, db, "SELECT f, count(*) FROM a WHERE k <= 2 GROUP BY f").Rows; len(rows) != 1 || rows[0][1].Int() != 2 {
			t.Errorf("%s: GROUP BY f over the two zeros = %v, want one group of 2", d.name, rows)
		}
	}
}
