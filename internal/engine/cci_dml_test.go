package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"hybriddb/internal/optimizer"
	"hybriddb/internal/plan"
	"hybriddb/internal/sql"
	"hybriddb/internal/value"
	"hybriddb/internal/vclock"
)

// TestCCIDMLBesideMover runs UPDATE, DELETE, UPDATE TOP, DELETE TOP and
// INSERT from several goroutines against a clustered columnstore with a
// tuple mover running beside them, and checks that every statement
// changed the rows it located: each statement's RowsAffected, and the
// table's contents after a drain, must equal those of a
// clustered-B+-tree twin that ran the same statements one by one. Each
// goroutine owns one value of g, so the statements of different
// goroutines commute; every TOP statement fixes every column by
// equality, so whichever rows it picks are alike. A B+ tree secondary
// covers every user column, and the statements still locate their rows
// by a columnstore scan, which the test checks.
func TestCCIDMLBesideMover(t *testing.T) {
	const (
		workers = 4
		keys    = 24
		copies  = 4
		stmts   = 120
	)
	var rows []value.Row
	for g := 0; g < workers; g++ {
		for k := 0; k < keys; k++ {
			for c := 0; c < copies; c++ {
				rows = append(rows, value.Row{value.NewInt(int64(g)), value.NewInt(int64(k)), value.NewInt(int64(c % 2))})
			}
		}
	}
	build := func(ddl ...string) *Database {
		db := New(vclock.DefaultModel(vclock.DRAM), 0)
		db.DefaultRowGroupSize = 64
		mustExec(t, db, "CREATE TABLE t (g BIGINT, k BIGINT, v BIGINT, PRIMARY KEY (g, k))")
		db.Table("t").BulkLoad(nil, rows)
		for _, q := range ddl {
			mustExec(t, db, q)
		}
		return db
	}
	cci := build("CREATE CLUSTERED COLUMNSTORE INDEX cci ON t", "CREATE INDEX ix ON t (k) INCLUDE (g, v)")
	defer cci.Close()
	twin := build()

	// Each worker's statements, drawn up front from its own seed.
	script := make([][]string, workers)
	for w := range script {
		rng := rand.New(rand.NewSource(int64(w) + 1))
		for i := 0; i < stmts; i++ {
			k, v := rng.Intn(keys), rng.Intn(3)
			var q string
			switch rng.Intn(5) {
			case 0:
				q = fmt.Sprintf("UPDATE t SET v = v + 1 WHERE g = %d AND k = %d", w, k)
			case 1:
				q = fmt.Sprintf("DELETE FROM t WHERE g = %d AND k = %d AND v = %d", w, k, v)
			case 2:
				q = fmt.Sprintf("UPDATE TOP (2) t SET v = v + 1 WHERE g = %d AND k = %d AND v = %d", w, k, v)
			case 3:
				q = fmt.Sprintf("DELETE TOP (1) FROM t WHERE g = %d AND k = %d AND v = %d", w, k, v)
			default:
				q = fmt.Sprintf("INSERT INTO t VALUES (%d, %d, %d), (%d, %d, %d)", w, k, v, w, k, v)
			}
			script[w] = append(script[w], q)
		}
	}

	st, err := sql.ParseOne(script[0][0])
	if err != nil {
		t.Fatal(err)
	}
	probe, err := sql.NewBinder(cci).BindUpdate(st.(*sql.UpdateStmt))
	if err != nil {
		t.Fatal(err)
	}
	if scan := optimizer.ChooseDMLScan(cci.Table("t"), probe.Conjuncts, optimizer.Options{Model: cci.Model()}); scan.Access != plan.AccessCSIScan {
		t.Fatalf("%q locates its rows by %s, want a columnstore scan", script[0][0], scan.Describe())
	}

	cci.EnableTupleMover(MoverOptions{Interval: 100 * time.Microsecond})
	affected := make([][]int64, workers)
	var wg sync.WaitGroup
	for w := range script {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, q := range script[w] {
				res, err := cci.Exec(q)
				if err != nil {
					t.Errorf("worker %d %q: %v", w, q, err)
					return
				}
				affected[w] = append(affected[w], res.RowsAffected)
			}
		}(w)
	}
	wg.Wait()
	cci.Mover().Drain()
	if cci.Mover().Stats().Moves == 0 {
		t.Error("the mover installed no move beside the statements")
	}

	for w := range script {
		for i, q := range script[w] {
			if i >= len(affected[w]) {
				break
			}
			if got, want := affected[w][i], mustExec(t, twin, q).RowsAffected; got != want {
				t.Errorf("worker %d %q: %d rows affected, the B+ tree twin %d", w, q, got, want)
			}
		}
	}
	const all = "SELECT g, k, v FROM t ORDER BY g, k, v"
	if got, want := mustExec(t, cci, all).Rows, mustExec(t, twin, all).Rows; !reflect.DeepEqual(got, want) {
		t.Errorf("after the statements the columnstore holds %d rows, the B+ tree twin %d; contents differ", len(got), len(want))
	}
}
