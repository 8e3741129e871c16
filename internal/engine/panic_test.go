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

// TestStatementPanicIsContained: BIGINT + VARCHAR passes the binder and
// panics in the evaluator. The statement must fail alone — on the
// statement's goroutine (a projection) and on a morsel worker's (a scan
// filter at Parallelism 8) — and leave its session, a second session
// and the statement lock usable.
func TestStatementPanicIsContained(t *testing.T) {
	exec.SetSchedulableCPUs(8)
	defer exec.SetSchedulableCPUs(0)
	db := New(vclock.DefaultModel(vclock.DRAM), 0)
	db.DefaultRowGroupSize = 512
	mustExec(t, db, "CREATE TABLE t (a BIGINT, s VARCHAR(8))")
	rows := make([]value.Row, 40_000)
	for i := range rows {
		rows[i] = value.Row{value.NewInt(int64(i)), value.NewString(fmt.Sprintf("s%d", i%5))}
	}
	db.Table("t").BulkLoad(nil, rows)
	mustExec(t, db, "CREATE CLUSTERED COLUMNSTORE INDEX cci ON t")

	const counter = "hybriddb_statement_panics_total"
	before := metrics.Default().Snapshot()[counter]
	first, second := db.OpenSession("first"), db.OpenSession("second")
	defer db.CloseSession(first)
	defer db.CloseSession(second)

	for i, c := range []struct{ q, frame string }{
		{"SELECT a + s FROM t", "batchProject"},
		{"SELECT count(*) FROM t WHERE a + s > 1", "runWorkers"}, // DOP 40: a morsel worker
	} {
		q := c.q
		_, err := db.ExecSession(first, q, ExecOptions{Parallelism: 8})
		var pe *exec.PanicError
		if !errors.As(err, &pe) || !strings.Contains(err.Error(), "VARCHAR") {
			t.Fatalf("%s: err = %v, want a PanicError naming the bad operand", q, err)
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
// here constant folding DATEADD over a VARCHAR count, in the binder —
// must come back as an error with the shared lock released, and must
// not count as a statement.
func TestPlanPanicIsContained(t *testing.T) {
	db := newDB(t)
	mustExec(t, db, "CREATE TABLE t (a BIGINT)")
	statements := metrics.Default().Snapshot()["hybriddb_statements_total"]
	_, err := db.Plan("SELECT DATEADD(day, 'x', '1998-01-01') FROM t", ExecOptions{})
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
