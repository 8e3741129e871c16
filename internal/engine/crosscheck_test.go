package engine

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"hybriddb/internal/exec"
	"hybriddb/internal/metrics"
	"hybriddb/internal/value"
	"hybriddb/internal/vclock"
)

// TestSerialParallelEquivalence checks the morsel-driven executor's
// contract: the same query at any real worker count must return
// identical rows AND an identical virtual-clock Metrics snapshot.
// Workers change wall-clock time only; every charge, byte, and memory
// peak is simulated identically. The table mixes compressed rowgroups,
// a populated delta store, and deleted rows so all three scan phases
// cross the exchange.
func TestSerialParallelEquivalence(t *testing.T) {
	// The scheduler clamps workers to schedulable CPUs so parallelism is
	// never slower than serial on small machines; pretend this machine
	// has 8 so the pool paths run (and race-test) regardless of host.
	exec.SetSchedulableCPUs(8)
	defer exec.SetSchedulableCPUs(0)
	db := New(vclock.DefaultModel(vclock.DRAM), 0)
	db.DefaultRowGroupSize = 1024
	mustExec(t, db, "CREATE TABLE p (a BIGINT, b BIGINT, c DOUBLE, d VARCHAR(8))")
	rng := rand.New(rand.NewSource(7))
	rows := make([]value.Row, 30000)
	for i := range rows {
		rows[i] = value.Row{
			value.NewInt(int64(i)),
			value.NewInt(rng.Int63n(40)),
			value.NewFloat(float64(rng.Intn(1000)) / 4),
			value.NewString(fmt.Sprintf("v%02d", rng.Intn(25))),
		}
	}
	db.Table("p").BulkLoad(nil, rows)
	mustExec(t, db, "CREATE CLUSTERED COLUMNSTORE INDEX cci ON p (a)")
	// Delta-store rows: the trickle-inserted tail becomes its own morsel.
	for i := 0; i < 64; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO p VALUES (%d, %d, %d.25, 'v%02d')",
			40000+i, i%40, i%13, i%25))
	}
	// Deleted rows exercise the delete-bitmap (or buffered-delete
	// fallback-to-serial) path.
	mustExec(t, db, "DELETE FROM p WHERE a BETWEEN 500 AND 700")

	// Second columnstore table so hash joins cross the exchange on both
	// sides (parallel build-side scan, fused morsel-driven probe). q.x
	// spreads over 2 000 values, of which p.b meets 40, so p ⋈ q emits
	// ~90 000 rows: with q.x over the same 40 values as p.b it emitted
	// 4.5 M, most of this test's time under -race.
	mustExec(t, db, "CREATE TABLE q (x BIGINT, y BIGINT, z DOUBLE)")
	qrows := make([]value.Row, 6000)
	for i := range qrows {
		qrows[i] = value.Row{
			value.NewInt(int64(i % 2000)),
			value.NewInt(rng.Int63n(12)),
			value.NewFloat(float64(rng.Intn(400)) / 8),
		}
	}
	db.Table("q").BulkLoad(nil, qrows)
	mustExec(t, db, "CREATE CLUSTERED COLUMNSTORE INDEX qcci ON q (x)")

	queries := []string{
		"SELECT count(*), sum(a), min(b), max(b) FROM p",
		"SELECT count(*), sum(a) FROM p WHERE b < 11",
		"SELECT b, count(*), sum(a) FROM p GROUP BY b",
		"SELECT b, count(DISTINCT d) FROM p GROUP BY b",
		"SELECT b, avg(a) FROM p WHERE d = 'v03' GROUP BY b",
		"SELECT b, avg(c) FROM p GROUP BY b", // float AVG: morsel-order partial merge
		"SELECT sum(c), avg(c) FROM p",       // scalar float fold
		"SELECT count(DISTINCT d), sum(DISTINCT b) FROM p",
		"SELECT a, b FROM p WHERE b = 7 ORDER BY a",
		"SELECT a, b, c FROM p WHERE a >= 25000 ORDER BY a, b",
		// Hash joins: build and probe both columnstore scans.
		"SELECT x, count(*), sum(a) FROM p JOIN q ON b = x GROUP BY x",
		"SELECT y, count(*), sum(c) FROM p JOIN q ON b = x WHERE z < 30 GROUP BY y",
		// TOP above a blocking operator (sort / aggregate) keeps the
		// pipeline below it morsel-eligible.
		"SELECT TOP 10 a, b FROM p WHERE b < 20 ORDER BY a",
		"SELECT TOP 7 b, sum(c) FROM p GROUP BY b ORDER BY b",
		// Parallel sort / TOP over the morsel partials (loser-tree merge)
		// including DESC keys, ties, and a full-table sort.
		"SELECT a, b, c FROM p WHERE b < 14 ORDER BY c DESC, a",
		"SELECT a, d FROM p ORDER BY d, a",
		"SELECT TOP 50 a, b, c FROM p ORDER BY c DESC, b, a",
		// Partitioned join build feeding an ordered/TOP consumer.
		"SELECT x, count(*) FROM p JOIN q ON b = x GROUP BY x ORDER BY x",
		"SELECT TOP 20 a, y FROM p JOIN q ON b = x WHERE z < 25 ORDER BY a, y",
	}
	canon := func(res *Result) string {
		out := make([]string, len(res.Rows))
		for i, r := range res.Rows {
			s := ""
			for _, v := range r {
				if v.Kind() == value.KindFloat {
					s += fmt.Sprintf("|%.6f", v.Float())
				} else {
					s += "|" + v.String()
				}
			}
			out[i] = s
		}
		sort.Strings(out)
		return strings.Join(out, "\n")
	}
	m0 := metrics.Default().Value("hybriddb_exec_morsels_dispatched_total")
	for _, q := range queries {
		serial := mustExec(t, db, q, ExecOptions{Parallelism: 1})
		for _, workers := range []int{1, 2, 4, 8} {
			par := mustExec(t, db, q, ExecOptions{Parallelism: workers})
			if par.Metrics != serial.Metrics {
				t.Errorf("%s: metrics diverge at %d workers\n serial:   %v\n parallel: %v",
					q, workers, serial.Metrics, par.Metrics)
			}
			if got, want := canon(par), canon(serial); got != want {
				t.Errorf("%s: rows diverge at %d workers", q, workers)
			}
			// ORDER BY output must match row-for-row, not just as a set.
			if strings.Contains(q, "ORDER BY") {
				for i := range serial.Rows {
					for j := range serial.Rows[i] {
						if value.Compare(serial.Rows[i][j], par.Rows[i][j]) != 0 {
							t.Fatalf("%s: ordered row %d diverges at %d workers", q, i, workers)
						}
					}
				}
			}
		}
	}
	if d := metrics.Default().Value("hybriddb_exec_morsels_dispatched_total") - m0; d <= 0 {
		t.Fatalf("morsels dispatched delta = %v; the parallel path was never exercised", d)
	}

	// EXPLAIN ANALYZE under parallel workers carries the exchange
	// attributes and the same per-operator row counts as serial.
	q := "SELECT b, count(*), sum(a) FROM p GROUP BY b"
	serialTrace := mustExec(t, db, "EXPLAIN ANALYZE "+q, ExecOptions{Parallelism: 1})
	parTrace := mustExec(t, db, "EXPLAIN ANALYZE "+q, ExecOptions{Parallelism: 4})
	ss, ps := serialTrace.Trace.Find("Columnstore"), parTrace.Trace.Find("Columnstore")
	if ss == nil || ps == nil {
		t.Fatalf("missing scan trace nodes:\n%s\n%s", serialTrace.Trace, parTrace.Trace)
	}
	if ss.Rows != ps.Rows || ss.Batches != ps.Batches || ss.BytesRead != ps.BytesRead {
		t.Errorf("scan trace diverges: serial rows=%d batches=%d read=%d, parallel rows=%d batches=%d read=%d",
			ss.Rows, ss.Batches, ss.BytesRead, ps.Rows, ps.Batches, ps.BytesRead)
	}
	if v, ok := ps.Attr("parallel_workers"); !ok || v != 4 {
		t.Errorf("parallel_workers attr = %d (present=%v), want 4", v, ok)
	}
	if v, ok := ps.Attr("morsels"); !ok || v <= 1 {
		t.Errorf("morsels attr = %d (present=%v), want > 1", v, ok)
	}
	var workerGroups int64
	for _, a := range ps.Attrs {
		if strings.HasPrefix(a.Key, "worker") && strings.HasSuffix(a.Key, "_rowgroups") {
			workerGroups += a.Val
		}
	}
	wantGroups, _ := ss.Attr("rowgroups_scanned")
	if workerGroups != wantGroups {
		t.Errorf("per-worker rowgroup counts sum to %d, want %d", workerGroups, wantGroups)
	}

	// Parallel sort: the Sort node carries the loser-tree merge charge
	// attr and the manufactured scan child the worker fan-out — and
	// both must be present at Parallelism 1 too, because the morsel
	// fold structure is part of the plan, not of the worker count.
	for _, dop := range []int{1, 4} {
		st := mustExec(t, db, "EXPLAIN ANALYZE SELECT a, b, c FROM p WHERE b < 14 ORDER BY c DESC, a",
			ExecOptions{Parallelism: dop})
		sn := st.Trace.Find("Sort")
		if sn == nil {
			t.Fatalf("missing Sort trace node:\n%s", st.Trace)
		}
		if _, ok := sn.Attr("parallel_sort_merge_ns"); !ok {
			t.Errorf("dop %d: Sort node missing parallel_sort_merge_ns attr:\n%s", dop, st.Trace)
		}
	}

	// Partitioned join build: parallel runs record the partition count;
	// the serial-vs-parallel Metrics loop above already proved the
	// partitioning is invisible to the virtual clock. Both scans must
	// still run as several morsels, so that shrinking the tables cannot
	// drop a parallel path unnoticed.
	jt := mustExec(t, db, "EXPLAIN ANALYZE SELECT x, count(*), sum(a) FROM p JOIN q ON b = x GROUP BY x",
		ExecOptions{Parallelism: 4})
	jn := jt.Trace.Find("HashJoin")
	if jn == nil {
		t.Fatalf("missing HashJoin trace node:\n%s", jt.Trace)
	}
	if v, ok := jn.Attr("build_partitions"); !ok || v < 2 {
		t.Errorf("build_partitions attr = %d (present=%v), want >= 2:\n%s", v, ok, jt.Trace)
	}
	for _, scan := range []string{"ColumnstoreScan(p)", "ColumnstoreScan(q)"} {
		sn := jt.Trace.Find(scan)
		if sn == nil {
			t.Fatalf("missing %s trace node:\n%s", scan, jt.Trace)
		}
		if v, ok := sn.Attr("morsels"); !ok || v < 2 {
			t.Errorf("%s: morsels attr = %d (present=%v), want >= 2:\n%s", scan, v, ok, jt.Trace)
		}
	}
}

// TestCrossDesignEquivalence is the repo's core correctness property:
// for randomly generated tables, queries, and DML, every physical
// design (heap, clustered B+ tree with secondaries, primary
// columnstore, hybrid) must return identical results. Performance may
// differ by orders of magnitude — answers may not.
func TestCrossDesignEquivalence(t *testing.T) {
	const (
		rows    = 4000
		queries = 60
		dmlOps  = 15
	)
	designs := []struct {
		name string
		ddl  []string
	}{
		{"heap", nil},
		{"btree", []string{"CREATE CLUSTERED INDEX cix ON r (a)"}},
		{"btree+secondaries", []string{
			"CREATE CLUSTERED INDEX cix ON r (a)",
			"CREATE NONCLUSTERED INDEX ixb ON r (b) INCLUDE (c)",
			"CREATE NONCLUSTERED COLUMNSTORE INDEX csi ON r",
		}},
		{"columnstore", []string{"CREATE CLUSTERED COLUMNSTORE INDEX cci ON r"}},
	}

	build := func(ddl []string) *Database {
		db := New(vclock.DefaultModel(vclock.DRAM), 0)
		db.DefaultRowGroupSize = 512
		if _, err := db.Exec("CREATE TABLE r (a BIGINT, b BIGINT, c DOUBLE, d VARCHAR(8), e DATE)"); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(77))
		data := make([]value.Row, rows)
		for i := range data {
			data[i] = value.Row{
				value.NewInt(rng.Int63n(2000)),
				value.NewInt(rng.Int63n(30)),
				value.NewFloat(float64(rng.Intn(1000)) / 4),
				value.NewString(fmt.Sprintf("v%02d", rng.Intn(20))),
				value.NewDate(10000 + rng.Int63n(365)),
			}
		}
		db.Table("r").BulkLoad(nil, data)
		for _, q := range ddl {
			if _, err := db.Exec(q); err != nil {
				t.Fatal(err)
			}
		}
		return db
	}

	dbs := make([]*Database, len(designs))
	for i, d := range designs {
		dbs[i] = build(d.ddl)
	}

	qrng := rand.New(rand.NewSource(99))
	genQuery := func() string {
		var preds []string
		if qrng.Intn(2) == 0 {
			preds = append(preds, fmt.Sprintf("a < %d", qrng.Int63n(2200)))
		}
		if qrng.Intn(2) == 0 {
			preds = append(preds, fmt.Sprintf("b = %d", qrng.Int63n(32)))
		}
		if qrng.Intn(3) == 0 {
			preds = append(preds, fmt.Sprintf("c BETWEEN %d AND %d", qrng.Intn(100), 100+qrng.Intn(150)))
		}
		if qrng.Intn(4) == 0 {
			preds = append(preds, fmt.Sprintf("d = 'v%02d'", qrng.Intn(22)))
		}
		where := ""
		if len(preds) > 0 {
			where = " WHERE " + preds[0]
			for _, p := range preds[1:] {
				where += " AND " + p
			}
		}
		switch qrng.Intn(4) {
		case 0:
			return "SELECT count(*), sum(a), min(c), max(c) FROM r" + where
		case 1:
			return "SELECT b, count(*), sum(c) FROM r" + where + " GROUP BY b"
		case 2:
			return "SELECT d, count(DISTINCT b), avg(c) FROM r" + where + " GROUP BY d"
		default:
			return "SELECT a, b, c FROM r" + where + " ORDER BY a, b, c DESC"
		}
	}
	// DML must target a deterministic row set (no TOP): TOP-k without
	// ORDER BY legitimately picks different rows per physical design.
	genDML := func() string {
		switch qrng.Intn(3) {
		case 0:
			return fmt.Sprintf("INSERT INTO r VALUES (%d, %d, %d.5, 'v%02d', '1997-0%d-15')",
				3000+qrng.Intn(100), qrng.Intn(30), qrng.Intn(300), qrng.Intn(20), 1+qrng.Intn(9))
		case 1:
			return fmt.Sprintf("UPDATE r SET c += 1 WHERE b = %d AND a < %d",
				qrng.Intn(30), 200+qrng.Int63n(500))
		default:
			return fmt.Sprintf("DELETE FROM r WHERE a BETWEEN %d AND %d", 400+qrng.Intn(200), 650+qrng.Intn(100))
		}
	}

	canon := func(res *Result) []string {
		out := make([]string, len(res.Rows))
		for i, r := range res.Rows {
			s := ""
			for _, v := range r {
				if v.Kind() == value.KindFloat {
					s += fmt.Sprintf("|%.6f", v.Float())
				} else {
					s += "|" + v.String()
				}
			}
			out[i] = s
		}
		sort.Strings(out)
		return out
	}

	ops := 0
	for qi := 0; qi < queries; qi++ {
		// Interleave DML so all update paths (delta stores, delete
		// buffers, bitmaps, in-place B+ tree updates) are exercised.
		if ops < dmlOps && qi%4 == 3 {
			ops++
			dml := genDML()
			var affected []int64
			for _, db := range dbs {
				res, err := db.Exec(dml)
				if err != nil {
					t.Fatalf("%s: %v", dml, err)
				}
				affected = append(affected, res.RowsAffected)
			}
			for i := 1; i < len(affected); i++ {
				if affected[i] != affected[0] {
					t.Fatalf("%s: rows affected diverge %v", dml, affected)
				}
			}
			continue
		}
		q := genQuery()
		var ref []string
		for di, db := range dbs {
			res, err := db.Exec(q)
			if err != nil {
				t.Fatalf("[%s] %s: %v", designs[di].name, q, err)
			}
			got := canon(res)
			if di == 0 {
				ref = got
				continue
			}
			if len(got) != len(ref) {
				t.Fatalf("[%s] %s: %d rows, heap got %d", designs[di].name, q, len(got), len(ref))
			}
			for i := range got {
				if got[i] != ref[i] {
					t.Fatalf("[%s] %s:\n row %d: %s\n heap:  %s", designs[di].name, q, i, got[i], ref[i])
				}
			}
		}
	}
}
