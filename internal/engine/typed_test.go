package engine

import (
	"fmt"
	"testing"

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
