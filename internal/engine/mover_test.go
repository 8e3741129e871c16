package engine

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"hybriddb/internal/plan"
	"hybriddb/internal/value"
	"hybriddb/internal/vclock"
)

// moverDB is a database with a small rowgroup size (so compaction
// boundaries are cheap to reach), one table, and a secondary CSI.
func moverDB(t *testing.T, rowGroup int) *Database {
	t.Helper()
	db := New(vclock.DefaultModel(vclock.DRAM), 0)
	db.DefaultRowGroupSize = rowGroup
	mustExec(t, db, "CREATE TABLE t (col1 BIGINT, col2 BIGINT, PRIMARY KEY (col1))")
	mustExec(t, db, "CREATE NONCLUSTERED COLUMNSTORE INDEX csi ON t")
	return db
}

// TestTupleMoverConcurrentStress runs the background mover against
// parallel SELECT readers (workers 1 and 4) and a serial INSERT/DELETE
// writer. Meaningful under -race: it exercises the snapshot-under-
// shared-lock / encode-off-lock / install-under-exclusive-lock split.
func TestTupleMoverConcurrentStress(t *testing.T) {
	db := moverDB(t, 256)
	defer db.Close()
	db.EnableTupleMover(MoverOptions{Interval: 200 * time.Microsecond})

	const (
		readers    = 4
		readIters  = 60
		writeIters = 1200
	)
	var wg sync.WaitGroup
	errs := make(chan error, readers*readIters+writeIters)

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < writeIters; i++ {
			var q string
			if i%4 == 3 {
				q = fmt.Sprintf("DELETE FROM t WHERE col1 = %d", i-3)
			} else {
				q = fmt.Sprintf("INSERT INTO t VALUES (%d, %d)", i, i%17)
			}
			if _, err := db.Exec(q); err != nil {
				errs <- fmt.Errorf("writer %q: %w", q, err)
				return
			}
		}
	}()
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			workers := 1
			if w%2 == 1 {
				workers = 4
			}
			for i := 0; i < readIters; i++ {
				q := fmt.Sprintf("SELECT count(*), sum(col2) FROM t WHERE col2 < %d", 1+i%17)
				res, err := db.Exec(q, ExecOptions{Parallelism: workers})
				if err != nil {
					errs <- fmt.Errorf("reader %d %q: %w", w, q, err)
					return
				}
				if len(res.Rows) != 1 {
					errs <- fmt.Errorf("reader %d: %d rows", w, len(res.Rows))
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Quiesce: drain the backlog completely and check nothing was
	// dropped or duplicated by the concurrent compaction.
	db.Mover().Drain()
	stats := db.Mover().Stats()
	if stats.Moves == 0 {
		t.Error("mover never installed a move under the write stream")
	}
	if stats.Maintenance.CPUTime == 0 {
		t.Error("mover work was not charged to the maintenance tracker")
	}
	for _, d := range db.CompactionDebts() {
		if d.Debt.DeltaRows != 0 || d.Debt.BufferedDeletes != 0 {
			t.Errorf("debt after drain: %+v", d)
		}
	}
	// 3 inserts then 1 delete per 4 writer iterations.
	want := writeIters - 2*(writeIters/4)
	res := mustExec(t, db, "SELECT count(*) FROM t")
	if got := res.Rows[0][0].Int(); got != int64(want) {
		t.Errorf("final count = %d, want %d", got, want)
	}
	if csi := db.Table("t").SecondaryCSI().CSI; csi.InlineCompactions() != 0 {
		t.Errorf("inline compactions = %d with mover attached", csi.InlineCompactions())
	}
}

// TestTupleMoverEquivalence applies the same DML sequence to a database
// with the background mover racing alongside and to one compacting
// synchronously, then compares query results AND Metrics bit-for-bit.
// The two diverge only in physical rowgroup layout, so the comparison
// runs after rebuilding the CSI on both — same logical content, same
// physical state, so any difference means the mover corrupted data.
func TestTupleMoverEquivalence(t *testing.T) {
	queries := []string{
		"SELECT count(*) FROM t",
		"SELECT sum(col2) FROM t WHERE col1 < 700",
		"SELECT col1, col2 FROM t WHERE col2 = 3 ORDER BY col1",
		"SELECT count(*), sum(col1) FROM t WHERE col2 >= 10",
	}
	run := func(withMover bool) []*Result {
		db := moverDB(t, 128)
		defer db.Close()
		if withMover {
			db.EnableTupleMover(MoverOptions{Interval: 100 * time.Microsecond})
		}
		for i := 0; i < 900; i++ {
			mustExec(t, db, fmt.Sprintf("INSERT INTO t VALUES (%d, %d)", i, i%17))
			if i%5 == 4 {
				mustExec(t, db, fmt.Sprintf("DELETE FROM t WHERE col1 = %d", i-2))
			}
		}
		if withMover {
			db.Mover().Drain()
			db.DisableTupleMover()
		}
		// Normalize physical layout: rebuild the CSI from the primary.
		mustExec(t, db, "DROP INDEX csi ON t")
		mustExec(t, db, "CREATE NONCLUSTERED COLUMNSTORE INDEX csi ON t")
		var out []*Result
		for _, q := range queries {
			out = append(out, mustExec(t, db, q))
		}
		return out
	}
	moved, synced := run(true), run(false)
	for i := range queries {
		if !reflect.DeepEqual(moved[i].Rows, synced[i].Rows) {
			t.Errorf("%q: rows diverged\nmover: %v\nsync:  %v", queries[i], moved[i].Rows, synced[i].Rows)
		}
		if moved[i].Metrics != synced[i].Metrics {
			t.Errorf("%q: metrics diverged\nmover: %+v\nsync:  %+v", queries[i], moved[i].Metrics, synced[i].Metrics)
		}
	}
}

// TestMoverRemovesInsertLatencySpike: with the mover attached, the
// insert that crosses the rowgroup boundary is charged exactly the same
// virtual cost as any other insert (no inline whole-delta encode), and
// the delta still gets compacted — asynchronously.
func TestMoverRemovesInsertLatencySpike(t *testing.T) {
	db := moverDB(t, 64)
	defer db.Close()
	db.EnableTupleMover(MoverOptions{Interval: time.Hour}) // signal-driven only
	csi := db.Table("t").SecondaryCSI().CSI

	var mid, boundary vclock.Metrics
	for i := 0; i < 70; i++ {
		res := mustExec(t, db, fmt.Sprintf("INSERT INTO t VALUES (%d, 0)", i))
		switch i {
		case 10:
			mid = res.Metrics
		case 63: // 64th row: delta hits the rowgroup size
			boundary = res.Metrics
		}
	}
	if boundary != mid {
		t.Errorf("boundary insert charged %+v, mid insert %+v — inline-compression spike is back", boundary, mid)
	}
	if csi.InlineCompactions() != 0 {
		t.Errorf("inline compactions = %d", csi.InlineCompactions())
	}
	// The high-water signal (not the ticker: interval is an hour) must
	// wake the mover and compact the backlog. Poll through
	// CompactionDebts, which takes the statement lock — reading the
	// index directly would race with mover installs.
	deltaRows := func() int64 {
		for _, d := range db.CompactionDebts() {
			if d.Index == "csi" {
				return d.Debt.DeltaRows
			}
		}
		return -1
	}
	deadline := time.Now().Add(5 * time.Second)
	for deltaRows() >= 64 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := deltaRows(); got >= 64 {
		t.Fatalf("mover never drained the signalled backlog: delta=%d", got)
	}
	if got := mustExec(t, db, "SELECT count(*) FROM t").Rows[0][0].Int(); got != 70 {
		t.Errorf("count = %d, want 70", got)
	}
}

// TestPlanFlipsUnderCompactionDebt: the optimizer's CSI costing charges
// the index's scan tax, so a delta-bloated CSI loses to the B+ path —
// the paper's hybrid trade-off — and wins it back after compaction.
func TestPlanFlipsUnderCompactionDebt(t *testing.T) {
	db := New(vclock.DefaultModel(vclock.DRAM), 0)
	db.DefaultRowGroupSize = 4096
	mustExec(t, db, "CREATE TABLE t (col1 BIGINT, col2 BIGINT, PRIMARY KEY (col1))")
	for i := 0; i < 50; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO t VALUES (%d, %d)", i, i%7))
	}
	mustExec(t, db, "CREATE NONCLUSTERED COLUMNSTORE INDEX csi ON t")

	access := func() plan.AccessKind {
		root, err := db.Plan("SELECT col1, col2 FROM t", ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		kinds := plan.LeafAccess(root.Input)
		if len(kinds) != 1 {
			t.Fatalf("leaf accesses = %v", kinds)
		}
		return kinds[0]
	}

	if got := access(); got != plan.AccessCSIScan {
		t.Fatalf("compacted CSI not chosen: %v", got)
	}

	// Bloat the delta store (staying under the rowgroup size, so no
	// synchronous compaction hides the debt) and buffer some deletes.
	for i := 100; i < 3600; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO t VALUES (%d, %d)", i, i%7))
	}
	mustExec(t, db, "DELETE FROM t WHERE col1 < 20")
	csi := db.Table("t").SecondaryCSI().CSI
	if csi.DeltaRows() == 0 || csi.BufferedDeletes() == 0 {
		t.Fatalf("debt not staged: delta=%d buf=%d", csi.DeltaRows(), csi.BufferedDeletes())
	}
	if got := access(); got != plan.AccessClusteredScan {
		t.Fatalf("bloated CSI still chosen: %v", got)
	}

	// Compaction clears the debt; the columnstore wins again.
	db.CompactTable("")
	if got := access(); got != plan.AccessCSIScan {
		t.Fatalf("compacted CSI not re-chosen: %v", got)
	}
}

// The HTAP mixed workload: CH-style interleaving of single-row inserts
// and deletes with columnstore reads on one clustered-columnstore
// table, small rowgroups so compaction is frequent.
const (
	htapBaseRows       = 8192 // compressed rows preloaded before round 0
	htapRowGroup       = 512
	htapRounds         = 12
	htapWritesPerRound = 512 // inserts per round; 1/16 of them paired with a delete
	// htapMoverMinMove is the mover arm's MinMoveRows and its pacing
	// bound: the background loop compacts any backlog at or above it, so
	// waiting for the delta to drop below it terminates and caps the
	// residual tax a read can observe at MinMoveRows-1 rows.
	htapMoverMinMove = 64
)

// htapResult is one regime's outcome: the summed virtual ExecTime of
// its reads and the inline compactions its inserts absorbed.
type htapResult struct {
	read   time.Duration
	inline int64
}

// runHTAPMixed runs the workload on a fresh database under one
// compaction regime:
//
//	compacted    full tuple move before every read round (the baseline)
//	mover        background tuple mover, reads wait until it has paced
//	             the backlog under htapMoverMinMove
//	uncompacted  a no-op high-water callback on the index (the hook the
//	             mover uses), so the delta grows for the whole run
//	sync         the engine default: inline compaction at the rowgroup
//	             boundary
func runHTAPMixed(t *testing.T, regime string) (res htapResult) {
	t.Helper()
	db := New(vclock.DefaultModel(vclock.DRAM), 0)
	defer db.Close()
	db.DefaultRowGroupSize = htapRowGroup
	mustExec(t, db, "CREATE TABLE ht (k BIGINT, g BIGINT, v BIGINT, PRIMARY KEY (k))")
	rows := make([]value.Row, htapBaseRows)
	for i := range rows {
		rows[i] = value.Row{value.NewInt(int64(i)), value.NewInt(int64(i % 64)), value.NewInt(int64(i * 7 % 10_000))}
	}
	db.Table("ht").BulkLoad(nil, rows)
	mustExec(t, db, "CREATE CLUSTERED COLUMNSTORE INDEX cci ON ht (k)")
	cci := db.Table("ht").CCI()
	switch regime {
	case "mover":
		db.EnableTupleMover(MoverOptions{Interval: 200 * time.Microsecond, MinMoveRows: htapMoverMinMove})
	case "uncompacted":
		cci.SetHighWater(func() {})
	}
	backlog := func() (n int64) {
		// Through the locked debt report: the mover mutates the index.
		for _, d := range db.CompactionDebts() {
			n += d.Debt.DeltaRows
		}
		return n
	}
	serial := ExecOptions{Parallelism: 1}
	k := int64(1 << 20)
	for round := 0; round < htapRounds; round++ {
		for i := 0; i < htapWritesPerRound; i++ {
			mustExec(t, db, fmt.Sprintf("INSERT INTO ht VALUES (%d, %d, %d)", k, k%64, k*7%10_000), serial)
			if i%16 == 15 {
				// The victim may still live in the delta or already be
				// compressed: both delete paths are exercised.
				mustExec(t, db, fmt.Sprintf("DELETE FROM ht WHERE k = %d", k-8), serial)
			}
			k++
		}
		switch regime {
		case "compacted":
			db.CompactTable("")
		case "mover":
			deadline := time.Now().Add(10 * time.Second)
			for backlog() >= htapMoverMinMove {
				if time.Now().After(deadline) {
					t.Fatalf("mover did not pace the backlog under %d rows (at %d)", htapMoverMinMove, backlog())
				}
				time.Sleep(100 * time.Microsecond)
			}
		}
		for _, q := range []string{
			"SELECT k, v FROM ht WHERE g < 8",
			"SELECT g, sum(v), count(*) FROM ht GROUP BY g",
		} {
			res.read += mustExec(t, db, q, serial).Metrics.ExecTime
		}
	}
	db.DisableTupleMover() // join the loop before reading the index directly
	res.inline = cci.InlineCompactions()
	return res
}

// TestHTAPCompactionRegimes pins the virtual-time relationships between
// the four compaction regimes under sustained writes (wall clock is
// benchmark/'s htap_mixed): the mover keeps reads near the compacted
// baseline (SynchroStore's claim, PAPERS.md) and removes the inline
// write stall, and an uncompacted delta makes reads materially slower —
// the scan-tax canary, which fails if scans ever stop being charged for
// uncompacted delta rows.
func TestHTAPCompactionRegimes(t *testing.T) {
	var compacted, mover, uncompacted, sync htapResult
	// The regimes are independent databases; run them side by side (most
	// of the wall time is the per-DELETE statistics rebuild). The group
	// returns once every parallel subtest has finished.
	t.Run("regimes", func(t *testing.T) {
		for _, r := range []struct {
			name string
			out  *htapResult
		}{{"compacted", &compacted}, {"mover", &mover}, {"uncompacted", &uncompacted}, {"sync", &sync}} {
			t.Run(r.name, func(t *testing.T) {
				t.Parallel()
				*r.out = runHTAPMixed(t, r.name)
				t.Logf("reads %v, %d inline compactions", r.out.read, r.out.inline)
			})
		}
	})
	if t.Failed() {
		return
	}
	if ratio := float64(mover.read) / float64(compacted.read); ratio > 1.5 {
		t.Errorf("mover reads %v are %.2fx the compacted baseline %v (limit 1.5x)", mover.read, ratio, compacted.read)
	}
	if ratio := float64(uncompacted.read) / float64(compacted.read); ratio < 1.8 {
		t.Errorf("uncompacted reads %v are only %.2fx the compacted baseline %v (want >= 1.8x; is the delta scan tax still charged?)",
			uncompacted.read, ratio, compacted.read)
	}
	if sync.inline == 0 {
		t.Error("sync: no inline compactions — the workload never crossed the rowgroup boundary")
	}
	if mover.inline != 0 {
		t.Errorf("mover: %d inline compactions — inserts stalled on the encode despite the background mover", mover.inline)
	}
	if uncompacted.inline != 0 {
		t.Errorf("uncompacted: %d inline compactions with a high-water callback attached", uncompacted.inline)
	}
}

// TestMoverLifecycle: enable is idempotent, disable joins the loop, and
// the database keeps working afterwards with synchronous compaction.
func TestMoverLifecycle(t *testing.T) {
	db := moverDB(t, 64)
	m1 := db.EnableTupleMover(MoverOptions{})
	if m2 := db.EnableTupleMover(MoverOptions{}); m2 != m1 {
		t.Fatal("double enable created a second mover")
	}
	if db.Mover() != m1 {
		t.Fatal("Mover() does not return the running mover")
	}
	db.DisableTupleMover()
	db.DisableTupleMover() // no-op
	if db.Mover() != nil {
		t.Fatal("mover still attached after disable")
	}
	csi := db.Table("t").SecondaryCSI().CSI
	if csi.HighWaterSet() {
		t.Fatal("high-water callback still attached after disable")
	}
	for i := 0; i < 70; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO t VALUES (%d, 0)", i))
	}
	if csi.InlineCompactions() == 0 {
		t.Fatal("synchronous compaction not restored after disable")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDropUnderRunningMover: DROP INDEX and DROP TABLE free their
// structures while the background mover may hold a plan against them;
// the stale plan must abort (never touch a freed page) and its encoded
// segments must be discarded, so the store ends empty.
func TestDropUnderRunningMover(t *testing.T) {
	for round := 0; round < 8; round++ {
		db := newDB(t)
		db.DefaultRowGroupSize = 64
		loadT(t, db, 500, 7)
		mustExec(t, db, "CREATE COLUMNSTORE INDEX csi ON t")
		db.EnableTupleMover(MoverOptions{MinMoveRows: 1})
		for i := 0; i < 300; i++ {
			mustExec(t, db, fmt.Sprintf("INSERT INTO t VALUES (%d, %d)", 1000+i, i%7))
			if i%3 == 0 {
				mustExec(t, db, fmt.Sprintf("UPDATE t SET col2 = 9 WHERE col1 = %d", i))
			}
			if i == 200+round {
				mustExec(t, db, "DROP INDEX csi ON t")
			}
		}
		mustExec(t, db, "DROP TABLE t")
		db.Close()
		if n := db.store.TotalBytes(); n != 0 {
			t.Fatalf("round %d: %d bytes left in the store", round, n)
		}
	}
}

// TestRowUpdatedTwiceReadsRight updates one row twice between two
// compactions of a nonclustered columnstore, in both orders of the two
// new values, and compacts by every route there is: the columnstore
// must then sum what the B+ tree sums. Were a move to compress both new
// versions into one rowgroup while their deletes are still buffered,
// the rowgroup's sort could put the newer one first and the buffered
// deletes would cancel it.
func TestRowUpdatedTwiceReadsRight(t *testing.T) {
	routes := []struct {
		name    string
		compact func(t *testing.T, db *Database)
	}{
		{"tuplemove", func(_ *testing.T, db *Database) { db.Table("t").TupleMove(nil) }},
		{"inline", func(t *testing.T, db *Database) {
			for k := 200; k < 300; k++ { // the delta crosses its high-water mark
				mustExec(t, db, fmt.Sprintf("INSERT INTO t VALUES (%d, %d, 0)", k, k%5))
			}
		}},
		{"mover", func(_ *testing.T, db *Database) {
			db.EnableTupleMover(MoverOptions{})
			db.Mover().Drain()
		}},
		{"none", func(*testing.T, *Database) {}},
	}
	for _, order := range [][2]int64{{40, 30}, {30, 40}} {
		for _, route := range routes {
			t.Run(fmt.Sprintf("%d-%d/%s", order[0], order[1], route.name), func(t *testing.T) {
				db := New(vclock.DefaultModel(vclock.DRAM), 0)
				defer db.Close()
				db.DefaultRowGroupSize = 64
				mustExec(t, db, "CREATE TABLE t (k INT, grp INT, q INT, PRIMARY KEY (k))")
				for k := 0; k < 200; k++ {
					mustExec(t, db, fmt.Sprintf("INSERT INTO t VALUES (%d, %d, 50)", k, k%5))
				}
				mustExec(t, db, "CREATE NONCLUSTERED COLUMNSTORE INDEX csi ON t")
				for _, q := range order {
					mustExec(t, db, fmt.Sprintf("UPDATE t SET q = %d WHERE k = 7", q))
				}
				route.compact(t, db)
				want := 199*50 + order[1]
				for _, opts := range []ExecOptions{{}, {NoColumnstore: true}} {
					if got := mustExec(t, db, "SELECT sum(q) FROM t", opts).Rows[0][0].Int(); got != want {
						t.Errorf("sum(q) with NoColumnstore=%v = %d, want %d", opts.NoColumnstore, got, want)
					}
				}
			})
		}
	}
}
