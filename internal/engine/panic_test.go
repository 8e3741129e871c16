package engine

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"hybriddb/internal/exec"
	"hybriddb/internal/metrics"
	"hybriddb/internal/value"
	"hybriddb/internal/vclock"
)

// TestStatementPanicIsContained: once the binder types every
// expression, no SQL text panics in an operator, so the test plants
// values of the wrong kind through the table API, which bypasses the
// binder. A VARCHAR in a heap table's BIGINT column panics in the
// evaluator on the statement's goroutine (a projection); a BIGINT in a
// columnstore's VARCHAR delta column panics in the delta morsel's
// decode on a morsel worker (Parallelism 8). The statement must fail
// alone and leave its session, a second session and the statement lock
// usable.
func TestStatementPanicIsContained(t *testing.T) {
	exec.SetSchedulableCPUs(8)
	defer exec.SetSchedulableCPUs(0)
	db := New(vclock.DefaultModel(vclock.DRAM), 0)
	db.DefaultRowGroupSize = 512
	for _, name := range []string{"t", "bad"} {
		mustExec(t, db, "CREATE TABLE "+name+" (a BIGINT, s VARCHAR(8))")
		rows := make([]value.Row, 40_000)
		for i := range rows {
			rows[i] = value.Row{value.NewInt(int64(i)), value.NewString(fmt.Sprintf("s%d", i%5))}
		}
		db.Table(name).BulkLoad(nil, rows)
		mustExec(t, db, "CREATE CLUSTERED COLUMNSTORE INDEX cci_"+name+" ON "+name)
	}
	// Statistics first: the row below goes straight into the delta store,
	// past the table and its statistics, whose rebuild would read it in
	// the front half.
	mustExec(t, db, "SELECT count(*) FROM bad WHERE s = 'x'")
	db.Table("bad").CCI().Insert(nil, value.Row{value.NewInt(-1), value.NewInt(7), value.NewInt(1 << 40)})
	mustExec(t, db, "CREATE TABLE r (a BIGINT)")
	db.Table("r").BulkLoad(nil, []value.Row{{value.NewString("x")}})

	const counter = "hybriddb_statement_panics_total"
	before := metrics.Default().Snapshot()[counter]
	first, second := db.OpenSession("first"), db.OpenSession("second")
	defer db.CloseSession(first)
	defer db.CloseSession(second)

	for i, c := range []struct{ q, frame, msg string }{
		{"SELECT a + 1 FROM r", "batchProject", "Int() on VARCHAR"},
		{"SELECT count(*) FROM bad WHERE s = 'x' OR a + 1 > 1", "runWorkers", "Str() on BIGINT"}, // a morsel worker
	} {
		q := c.q
		_, err := db.ExecSession(first, q, ExecOptions{Parallelism: 8})
		var pe *exec.PanicError
		if !errors.As(err, &pe) || !strings.Contains(err.Error(), c.msg) {
			t.Fatalf("%s: err = %v, want a PanicError naming the bad value", q, err)
		}
		if !strings.Contains(string(pe.Stack), c.frame) {
			t.Fatalf("%s: panicked outside %s:\n%s", q, c.frame, pe.Stack)
		}
		if got := metrics.Default().Snapshot()[counter] - before; got != float64(i+1) {
			t.Fatalf("%s: %s rose by %v, want %d", q, counter, got, i+1)
		}
		// A reader and a writer: both sides of the statement lock are free.
		if res, err := db.ExecSession(first, "SELECT count(*) FROM t", ExecOptions{}); err != nil || res.Rows[0][0].Int() != int64(40_000+i) {
			t.Fatalf("same session, next statement: %v %v", res, err)
		}
		if _, err := db.ExecSession(second, fmt.Sprintf("INSERT INTO t VALUES (%d, 'z')", -i-1), ExecOptions{}); err != nil {
			t.Fatalf("second session, next statement: %v", err)
		}
	}
}

// TestPlanPanicIsContained: Plan (DB.Explain, PlanUsesColumnstore) is
// not a statement but compiles like one, so a panic in its front half —
// here a catalog entry without a schema, in the binder — must come back
// as an error with the shared lock released, and must not count as a
// statement.
func TestPlanPanicIsContained(t *testing.T) {
	db := newDB(t)
	mustExec(t, db, "CREATE TABLE t (a BIGINT)")
	mustExec(t, db, "CREATE TABLE broken (a BIGINT)")
	db.Table("broken").Schema = nil
	statements := metrics.Default().Snapshot()["hybriddb_statements_total"]
	_, err := db.Plan("SELECT a FROM broken", ExecOptions{})
	var pe *exec.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a PanicError", err)
	}
	if got := metrics.Default().Snapshot()["hybriddb_statements_total"]; got != statements {
		t.Fatalf("Plan counted as a statement: %v -> %v", statements, got)
	}
	mustExec(t, db, "INSERT INTO t VALUES (1)") // the writer side of the lock is free
	if root, err := db.Plan("SELECT a FROM t", ExecOptions{}); err != nil || root == nil {
		t.Fatalf("Plan after a contained panic: %v %v", root, err)
	}
}
