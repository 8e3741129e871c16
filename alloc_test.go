//go:build !race

package hybriddb

import (
	"fmt"
	"runtime/metrics"
	"slices"
	"testing"

	"hybriddb/internal/value"
	"hybriddb/internal/workload"
)

// TestAnalyticAllocBytes is an allocation guard on the analytic paths
// of the hybrid design: a columnstore scan run morsel by morsel on one
// re-aimed scanner (Q01), hash joins (a fan-out join, Q17 and Q05,
// whose build is a clustered B+ tree scan) and a nested-loop join into
// a covering B+ tree seek (Q14, also with the query store on, which
// traces every rebind of the seek). Each query's heap allocation per
// execution, the median of five runs after a warm-up at Parallelism 1,
// must stay under a committed ceiling: the measured figure plus 25 %.
// The comment beside each ceiling is the figure before the scanners,
// the join output, the seek rows and the lifts' and aggregates' output
// batches were reused. A change that moves a figure on purpose moves
// its ceiling in the same commit. (The race detector's instrumentation allocates, so
// the guard does not run under -race.)
func TestAnalyticAllocBytes(t *testing.T) {
	db := spineNLJSeekDB(t)
	q := workload.CHQueries()
	for _, c := range []struct {
		name, sql string
		shape     []string
		ceiling   uint64 // bytes per execution
	}{
		{"Q01", q[0], []string{"Sort", "HashAggregate", "ColumnstoreScan(orderline)"},
			410_000}, // before: 365 248, the groups handed up as rows, and 3 322 368 before that
		// A fan-out hash join: its probe batches emit several batches'
		// worth of rows, so the output sizing shows at this scale (CH
		// Q10's do not).
		{"hashjoin_fanout", `SELECT o_c_id, sum(ol_amount) FROM oorder JOIN orderline ON ol_o_id = o_id GROUP BY o_c_id`,
			[]string{"HashAggregate", "HashJoin", "ColumnstoreScan(oorder)", "ColumnstoreScan(orderline)"},
			2_610_000}, // before: 3 053 776
		{"Q14", q[13], []string{"HashAggregate", "NestedLoopJoin", "ColumnstoreScan(ch_item)", "SecondarySeek(orderline)"},
			1_250_000}, // before: 1 482 512, and 2 576 544 before that
		{"Q17", q[16], []string{"HashAggregate", "HashJoin", "ColumnstoreScan(ch_item)", "ColumnstoreScan(orderline)"},
			440_000}, // before: 570 416
		// A hash join whose build is a clustered B+ tree scan.
		{"Q05", q[4], []string{"HashAggregate", "HashJoin", "ClusteredScan(ch_nation)", "ColumnstoreScan(ch_supplier)"},
			157_000}, // before: 137 328, the build copied out of row-layout batches
		// Q14 as the benchmark runs it: the query store traces every
		// SELECT, so each rebind of the seek is traced.
		{"Q14_querystore", q[13], []string{"HashAggregate", "NestedLoopJoin", "ColumnstoreScan(ch_item)", "SecondarySeek(orderline)"},
			1_305_000}, // before: 1 486 832, each rebind lifted and read back through a row reader
	} {
		if c.name == "Q14_querystore" {
			db.EnableQueryStore(QueryStoreOptions{})
			defer db.Internal().DisableQueryStore()
		}
		opts := ExecOptions{Parallelism: 1}
		ex, err := db.Exec("EXPLAIN ANALYZE "+c.sql, opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !hasShape(traceSkeleton(ex.Trace, 0, nil), c.shape) {
			t.Fatalf("%s: plan lost its shape %v:\n%s", c.name, c.shape, ex.Trace)
		}
		run := func() {
			if _, err := db.Exec(c.sql, opts); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
		run() // warm-up
		per := make([]uint64, 5)
		for i := range per {
			before := heapAllocBytes()
			run()
			per[i] = heapAllocBytes() - before
		}
		slices.Sort(per)
		t.Logf("%s: %d bytes per execution (ceiling %d)", c.name, per[2], c.ceiling)
		if per[2] > c.ceiling {
			t.Errorf("%s allocates %d bytes per execution, over its ceiling of %d", c.name, per[2], c.ceiling)
		}
	}
}

// TestStatsRebuildAllocBytes is an allocation guard on a statistics
// rebuild: a three-predicate point SELECT on a 100 000-row table with a
// clustered B+ tree, run right after a one-row UPDATE has dirtied the
// table's statistics, so that its optimization draws the table's sample
// again and builds the histograms of the three predicate columns. The
// SELECT's heap allocation, the median of five UPDATE-then-SELECT
// rounds, must stay under the measured figure (5 364 528) plus 25 %;
// the comment beside the ceiling gives the figure when histograms sorted
// boxed values and counted distinct values in a map, and when every
// histogram read the whole table to sample it. (Skipped under -race, as
// above.)
func TestStatsRebuildAllocBytes(t *testing.T) {
	const ceiling = 6_700_000 // bytes per SELECT; before: 9 582 048, and 19 567 232 before that
	db := Open()
	mustExecAll(t, db, "CREATE TABLE sr (k BIGINT, a BIGINT, b BIGINT, c BIGINT, PRIMARY KEY (k))")
	rows := make([]value.Row, 100_000)
	for i := range rows {
		rows[i] = value.Row{value.NewInt(int64(i)), value.NewInt(int64(i % 97)),
			value.NewInt(int64(i % 1013)), value.NewInt(int64(i*7919) % 100_000)}
	}
	db.Internal().Table("sr").BulkLoad(nil, rows)
	const point = "SELECT c FROM sr WHERE k = 4321 AND a = 53 AND b = 269"
	ex, err := db.Exec("EXPLAIN ANALYZE " + point)
	if err != nil {
		t.Fatal(err)
	}
	if !hasShape(traceSkeleton(ex.Trace, 0, nil), []string{"ClusteredSeek(sr)"}) {
		t.Fatalf("point SELECT lost its seek:\n%s", ex.Trace)
	}
	per := make([]uint64, 5)
	for i := range per {
		if res, err := db.Exec(fmt.Sprintf("UPDATE sr SET c = %d WHERE k = %d", i, 100+i)); err != nil || res.RowsAffected != 1 {
			t.Fatalf("UPDATE: %v (%+v)", err, res)
		}
		before := heapAllocBytes()
		if _, err := db.Exec(point); err != nil {
			t.Fatal(err)
		}
		per[i] = heapAllocBytes() - before
	}
	slices.Sort(per)
	t.Logf("point SELECT after an UPDATE: %d bytes (ceiling %d)", per[2], ceiling)
	if per[2] > ceiling {
		t.Errorf("point SELECT after an UPDATE allocates %d bytes, over its ceiling of %d", per[2], ceiling)
	}
}

// TestWireResultAllocBytes is an allocation guard on the wire result
// path: BenchmarkWireResultSQL's 18 000-row result read through
// database/sql over loopback, the server's encode and the driver's
// decode both counted in this process. The median of five queries after
// a warm-up must stay under the measured figure plus 25 %; the comment
// beside the ceiling is the figure when the executor materialized the
// result as rows and the client decoded it into rows before boxing each
// value. (Skipped under -race, as above.)
func TestWireResultAllocBytes(t *testing.T) {
	const ceiling = 1_360_000 // bytes per query, measured 1 086 208; before: 9 861 448
	pool := wireResultPool(t)
	per := make([]uint64, 6)
	for i := range per {
		before := heapAllocBytes()
		if n, err := scanWireResult(pool); err != nil || n != wireResultRows {
			t.Fatalf("%d rows, err %v; want %d", n, err, wireResultRows)
		}
		per[i] = heapAllocBytes() - before
	}
	per = per[1:] // the first query is the warm-up
	slices.Sort(per)
	t.Logf("%d-row result over the wire: %d bytes per query (ceiling %d)", wireResultRows, per[2], ceiling)
	if per[2] > ceiling {
		t.Errorf("the wire result allocates %d bytes per query, over its ceiling of %d", per[2], ceiling)
	}
}

// heapAllocBytes reads the cumulative bytes allocated on the heap.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
