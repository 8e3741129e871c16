package advisor

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hybriddb/internal/engine"
	"hybriddb/internal/sql"
	"hybriddb/internal/table"
	"hybriddb/internal/value"
	"hybriddb/internal/vclock"
)

// analyticsDB builds a fact table with a clustered B+ tree primary:
// f(id, dim, grp, val), 60k rows.
func analyticsDB(t *testing.T) *engine.Database {
	t.Helper()
	db := engine.New(vclock.DefaultModel(vclock.DRAM), 0)
	db.DefaultRowGroupSize = 8192
	if _, err := db.Exec("CREATE TABLE f (id BIGINT, dim BIGINT, grp BIGINT, val DOUBLE, PRIMARY KEY (id))"); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	rows := make([]value.Row, 60000)
	for i := range rows {
		rows[i] = value.Row{
			value.NewInt(int64(i)),
			value.NewInt(rng.Int63n(1000)),
			value.NewInt(rng.Int63n(25)),
			value.NewFloat(rng.Float64() * 100),
		}
	}
	db.Table("f").SetRowGroupSize(8192)
	db.Table("f").BulkLoad(nil, rows)
	return db
}

func TestRecommendsColumnstoreForAnalytics(t *testing.T) {
	db := analyticsDB(t)
	w := Workload{
		{SQL: "SELECT grp, sum(val) FROM f GROUP BY grp"},
		{SQL: "SELECT sum(val) FROM f WHERE dim < 900"},
	}
	rec, err := Tune(db, w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var hasCSI bool
	for _, p := range rec.Indexes {
		if p.Columnstore {
			hasCSI = true
		}
	}
	if !hasCSI {
		t.Fatalf("analytic workload did not get a columnstore: %+v", rec.Indexes)
	}
	if rec.Improvement() < 2 {
		t.Errorf("improvement = %.2f, expected substantial", rec.Improvement())
	}
}

func TestRecommendsBTreeForSelective(t *testing.T) {
	db := analyticsDB(t)
	w := Workload{
		{SQL: "SELECT val FROM f WHERE dim = 7"},
		{SQL: "SELECT val FROM f WHERE dim = 123"},
	}
	rec, err := Tune(db, w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var hasBTreeOnDim bool
	for _, p := range rec.Indexes {
		if !p.Columnstore && len(p.Keys) > 0 && p.Keys[0] == "dim" {
			hasBTreeOnDim = true
		}
	}
	if !hasBTreeOnDim {
		t.Fatalf("selective workload did not get a b+tree on dim: %+v", rec.Indexes)
	}
}

func TestHybridForMixedWorkload(t *testing.T) {
	db := analyticsDB(t)
	w := Workload{
		{SQL: "SELECT grp, sum(val) FROM f GROUP BY grp", Weight: 1},
		{SQL: "SELECT val FROM f WHERE dim = 7", Weight: 50},
		{SQL: "UPDATE TOP (5) f SET val += 1 WHERE dim = 9", Weight: 20},
	}
	rec, err := Tune(db, w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var csi, bt bool
	for _, p := range rec.Indexes {
		if p.Columnstore {
			csi = true
		} else {
			bt = true
		}
	}
	if !csi || !bt {
		t.Fatalf("mixed workload should get hybrid design, got %+v", rec.Indexes)
	}
}

func TestNoColumnstoreOption(t *testing.T) {
	db := analyticsDB(t)
	w := Workload{{SQL: "SELECT grp, sum(val) FROM f GROUP BY grp"}}
	rec, err := Tune(db, w, Options{NoColumnstore: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range rec.Indexes {
		if p.Columnstore {
			t.Fatalf("NoColumnstore recommended a columnstore: %+v", p)
		}
	}
}

// TestNoColumnstoreOnClusteredColumnstore tunes B+ tree-only over a
// table whose primary is a clustered columnstore: the table's rows stay
// reachable through its primary, so costing every configuration
// succeeds and the tuner returns a recommendation.
func TestNoColumnstoreOnClusteredColumnstore(t *testing.T) {
	db := analyticsDB(t)
	if _, err := db.Exec("CREATE CLUSTERED COLUMNSTORE INDEX cci ON f"); err != nil {
		t.Fatal(err)
	}
	w := Workload{
		{SQL: "SELECT val FROM f WHERE dim = 7"},
		{SQL: "SELECT grp, sum(val) FROM f GROUP BY grp"},
		{SQL: "UPDATE f SET val = val + 1 WHERE dim = 9"},
	}
	rec, err := Tune(db, w, Options{NoColumnstore: true})
	if err != nil {
		t.Fatal(err)
	}
	if rec == nil || rec.BaselineCost <= 0 || rec.RecommendedCost > rec.BaselineCost {
		t.Fatalf("no recommendation: %+v", rec)
	}
	// A seek on dim can serve the point query only if it covers val:
	// the columnstore has no key to look the rest of a row up by.
	var covering bool
	for _, p := range rec.Indexes {
		if p.Columnstore {
			t.Fatalf("NoColumnstore recommended a columnstore: %+v", p)
		}
		covering = covering || slices.Equal(p.Keys, []string{"dim"}) && slices.Contains(p.Include, "val")
	}
	if !covering {
		t.Errorf("no covering B+ tree on dim among %+v", rec.Indexes)
	}
}

// TestInsertIntoClusteredColumnstoreLocatesNothing: an INSERT into a
// clustered columnstore goes to its delta store, so the workload cost
// of an INSERT-only workload does not grow with the rows already in
// the table.
func TestInsertIntoClusteredColumnstoreLocatesNothing(t *testing.T) {
	baseline := func(rows int) time.Duration {
		db := engine.New(vclock.DefaultModel(vclock.DRAM), 0)
		if _, err := db.Exec("CREATE TABLE f (id BIGINT, val BIGINT)"); err != nil {
			t.Fatal(err)
		}
		data := make([]value.Row, rows)
		for i := range data {
			data[i] = value.Row{value.NewInt(int64(i)), value.NewInt(int64(i % 7))}
		}
		db.Table("f").BulkLoad(nil, data)
		if _, err := db.Exec("CREATE CLUSTERED COLUMNSTORE INDEX cci ON f"); err != nil {
			t.Fatal(err)
		}
		w := Workload{{SQL: "INSERT INTO f VALUES (-1, 1), (-2, 2)"}}
		rec, err := Tune(db, w, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return rec.BaselineCost
	}
	small, large := baseline(1000), baseline(40000)
	if small <= 0 || small != large {
		t.Fatalf("INSERT-only baseline: %v on 1 000 rows, %v on 40 000 rows; want equal and positive", small, large)
	}
}

func TestStorageBudget(t *testing.T) {
	db := analyticsDB(t)
	w := Workload{
		{SQL: "SELECT grp, sum(val) FROM f GROUP BY grp"},
		{SQL: "SELECT val FROM f WHERE dim = 7"},
	}
	unbounded, err := Tune(db, w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	budget := unbounded.TotalBytes / 4
	if budget == 0 {
		t.Skip("no bytes recommended")
	}
	bounded, err := Tune(db, w, Options{StorageBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	if bounded.TotalBytes > budget {
		t.Fatalf("budget %d exceeded: %d", budget, bounded.TotalBytes)
	}
}

func TestApplyMaterializesAndSpeedsUp(t *testing.T) {
	db := analyticsDB(t)
	q := "SELECT grp, sum(val) FROM f GROUP BY grp"
	before, err := db.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Tune(db, Workload{{SQL: q}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Indexes) == 0 {
		t.Fatal("nothing recommended")
	}
	if err := rec.Apply(db); err != nil {
		t.Fatal(err)
	}
	// No hypothetical leftovers.
	for _, s := range db.Table("f").Secondaries {
		if s.Hypothetical {
			t.Fatalf("hypothetical index %s left installed", s.Name)
		}
	}
	after, err := db.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Rows) != len(before.Rows) {
		t.Fatalf("results changed: %d vs %d groups", len(after.Rows), len(before.Rows))
	}
	if after.Metrics.CPUTime >= before.Metrics.CPUTime {
		t.Errorf("tuned cpu %v should beat untuned %v", after.Metrics.CPUTime, before.Metrics.CPUTime)
	}
}

func TestMaxIndexes(t *testing.T) {
	db := analyticsDB(t)
	w := Workload{
		{SQL: "SELECT grp, sum(val) FROM f GROUP BY grp"},
		{SQL: "SELECT val FROM f WHERE dim = 7"},
		{SQL: "SELECT val FROM f WHERE grp = 3"},
	}
	rec, err := Tune(db, w, Options{MaxIndexes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Indexes) > 1 {
		t.Fatalf("MaxIndexes=1 violated: %d", len(rec.Indexes))
	}
}

func TestCSISizeEstimationAccuracy(t *testing.T) {
	// Build tables with different compressibility; both estimators
	// should land within a reasonable factor of the true size, and GEE
	// must not blow up on low-cardinality columns (the n_nationkey
	// motivating example in Section 4.4).
	db := engine.New(vclock.DefaultModel(vclock.DRAM), 0)
	if _, err := db.Exec("CREATE TABLE s (lowcard BIGINT, highcard BIGINT, txt VARCHAR(16), PRIMARY KEY (highcard))"); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	rows := make([]value.Row, 40000)
	for i := range rows {
		rows[i] = value.Row{
			value.NewInt(rng.Int63n(25)),
			value.NewInt(int64(i)),
			value.NewString(fmt.Sprintf("str%d", rng.Int63n(40))),
		}
	}
	tb := db.Table("s")
	tb.SetRowGroupSize(8192)
	tb.BulkLoad(nil, rows)

	// Ground truth: materialize the CSI.
	sec := tb.AddSecondaryCSI(nil, "truth")
	for _, method := range []SizeMethod{SizeBlackBox, SizeGEE} {
		_, perCol := EstimateCSISize(tb, method)
		for c := 0; c < tb.Schema.Len(); c++ {
			actual := sec.CSI.ColumnBytes(c)
			est := perCol[c]
			if actual == 0 {
				continue
			}
			ratio := float64(est) / float64(actual)
			if ratio < 0.1 || ratio > 10 {
				t.Errorf("%v column %s: est %d vs actual %d (ratio %.2f)",
					method, tb.Schema.Columns[c].Name, est, actual, ratio)
			}
		}
	}
	// GEE specifically must not overestimate the low-cardinality column
	// the way naive linear scaling would.
	_, gee := EstimateCSISize(tb, SizeGEE)
	actualLow := sec.CSI.ColumnBytes(0)
	if gee[0] > actualLow*8 {
		t.Errorf("GEE low-card estimate %d vs actual %d", gee[0], actualLow)
	}
}

func TestEstimateBTreeSize(t *testing.T) {
	db := analyticsDB(t)
	tb := db.Table("f")
	est := EstimateBTreeSize(tb, []int{1}, []int{3})
	sec := tb.AddSecondaryBTree(nil, "real", []int{1}, []int{3})
	actual := sec.Tree.Bytes()
	ratio := float64(est) / float64(actual)
	if ratio < 0.3 || ratio > 3 {
		t.Errorf("btree size est %d vs actual %d (ratio %.2f)", est, actual, ratio)
	}
	_ = table.PrimaryHeap
}

func TestTuneErrors(t *testing.T) {
	db := analyticsDB(t)
	if _, err := Tune(db, Workload{{SQL: "SELECT nope FROM f"}}, Options{}); err == nil {
		t.Error("bad column accepted")
	}
	if _, err := Tune(db, Workload{{SQL: "garbage"}}, Options{}); err == nil {
		t.Error("bad sql accepted")
	}
}

func TestSortedColumnstoreCandidates(t *testing.T) {
	// The Section 4.5 extension: with range-heavy queries, enabling
	// sorted-columnstore candidates should produce a sorted CSI whose
	// DDL carries the sort column.
	db := analyticsDB(t)
	w := Workload{
		{SQL: "SELECT sum(val) FROM f WHERE dim < 20"},
		{SQL: "SELECT sum(val) FROM f WHERE dim < 50"},
		{SQL: "SELECT grp, sum(val) FROM f WHERE dim < 100 GROUP BY grp"},
	}
	rec, err := Tune(db, w, Options{SortedColumnstores: true})
	if err != nil {
		t.Fatal(err)
	}
	var sorted *ProposedIndex
	for i := range rec.Indexes {
		if rec.Indexes[i].Columnstore && len(rec.Indexes[i].SortColumns) > 0 {
			sorted = &rec.Indexes[i]
		}
	}
	if sorted == nil {
		t.Skip("advisor preferred another design at this scale")
	}
	if sorted.SortColumns[0] != "dim" {
		t.Fatalf("sort column = %v", sorted.SortColumns)
	}
	ddl := sorted.DDL("scsi")
	if !strings.Contains(ddl, "(dim)") {
		t.Fatalf("ddl = %s", ddl)
	}
	if err := rec.Apply(db); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec("SELECT sum(val) FROM f WHERE dim < 20")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatal("query failed after applying sorted CSI")
	}
}

func TestWeightsSteerRecommendation(t *testing.T) {
	// The same two statements with opposite weights should flip which
	// index the advisor values most.
	scan := "SELECT grp, sum(val) FROM f GROUP BY grp"
	seek := "SELECT val FROM f WHERE dim = 7"
	rec := func(scanW, seekW float64) *Recommendation {
		db := analyticsDB(t)
		r, err := Tune(db, Workload{
			{SQL: scan, Weight: scanW},
			{SQL: seek, Weight: seekW},
		}, Options{MaxIndexes: 1})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	scanHeavy := rec(1000, 1)
	seekHeavy := rec(1, 1000)
	if len(scanHeavy.Indexes) != 1 || !scanHeavy.Indexes[0].Columnstore {
		t.Errorf("scan-heavy pick: %+v", scanHeavy.Indexes)
	}
	if len(seekHeavy.Indexes) != 1 || seekHeavy.Indexes[0].Columnstore {
		t.Errorf("seek-heavy pick: %+v", seekHeavy.Indexes)
	}
}

// TestComparisonConsumersAgree is the advisor's half of the check the
// optimizer and exec tests of the same name make on the same six
// conjuncts: candidate key columns come from sql.AsComparison's reading
// (mirrored, <> and NULL bound no key), for a SELECT and for DML alike.
func TestComparisonConsumersAgree(t *testing.T) {
	db := engine.New(vclock.DefaultModel(vclock.DRAM), 0)
	if _, err := db.Exec("CREATE TABLE t (a BIGINT, b BIGINT)"); err != nil {
		t.Fatal(err)
	}
	binder := sql.NewBinder(db)
	for _, c := range []struct {
		where      string
		keys, rngs []int
	}{
		{"a = 5", []int{0}, nil},
		{"5 < a", []int{0}, []int{0}},
		{"b <> 3", nil, nil},
		{"7 >= b", []int{1}, []int{1}},
		{"a = NULL", nil, nil},
		{"a <= b", nil, nil},
	} {
		sel, err := sql.ParseOne("SELECT a FROM t WHERE " + c.where)
		if err != nil {
			t.Fatal(err)
		}
		bs, err := binder.BindSelect(sel.(*sql.SelectStmt))
		if err != nil {
			t.Fatal(err)
		}
		del, err := sql.ParseOne("DELETE FROM t WHERE " + c.where)
		if err != nil {
			t.Fatal(err)
		}
		bd, err := binder.BindDelete(del.(*sql.DeleteStmt))
		if err != nil {
			t.Fatal(err)
		}
		for kind, conj := range map[string][]sql.Expr{"select": bs.Conjuncts, "delete": bd.Conjuncts} {
			keys, rngs := seekKeys(conj, 0)
			if !slices.Equal(keys, c.keys) || !slices.Equal(rngs, c.rngs) {
				t.Errorf("%s %s: keys %v ranges %v, want %v %v", kind, c.where, keys, rngs, c.keys, c.rngs)
			}
		}
	}
}

// TestTuneBesideStatements runs the advisor next to the workload it
// tunes. Tune only reads: what-if indexes are an optimizer input, never
// catalog entries, and it holds the shared statement lock — so a SELECT
// beside it must never plan onto a metadata-only index, a writer must
// simply wait, and (under -race) no access may be unsynchronised. Next
// to readers alone every recommendation equals the quiet database's.
func TestTuneBesideStatements(t *testing.T) {
	db := engine.New(vclock.DefaultModel(vclock.DRAM), 0)
	db.DefaultRowGroupSize = 4096
	if _, err := db.Exec("CREATE TABLE f (id BIGINT, b BIGINT, c BIGINT, PRIMARY KEY (id))"); err != nil {
		t.Fatal(err)
	}
	rows := make([]value.Row, 20000)
	for i := range rows {
		rows[i] = value.Row{value.NewInt(int64(i)), value.NewInt(int64(i % 500)), value.NewInt(int64(i % 7))}
	}
	db.Table("f").BulkLoad(nil, rows)
	w := Workload{
		{SQL: "SELECT sum(c) FROM f WHERE b = 3"},
		{SQL: "SELECT c, count(*) FROM f GROUP BY c"},
		{SQL: "UPDATE f SET c = 1 WHERE b = 9"},
	}
	quiet, err := Tune(db, w, Options{})
	if err != nil || len(quiet.Indexes) == 0 {
		t.Fatalf("quiet Tune: %+v %v", quiet, err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	statement := func(next func(i int) string) {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			q := next(i)
			if q == "" {
				return
			}
			if _, err := db.Exec(q); err != nil {
				t.Errorf("%s beside Tune: %v", q, err)
				return
			}
		}
	}
	wg.Add(1)
	go statement(func(int) string { return "SELECT sum(c) FROM f WHERE b = 3" })
	for i := 0; i < 10; i++ {
		rec, err := Tune(db, w, Options{})
		if err != nil || !reflect.DeepEqual(rec, quiet) {
			t.Fatalf("Tune %d beside readers: %+v %v, want %+v", i, rec, err, quiet)
		}
	}

	// A writer joins in: each INSERT waits out whichever Tune holds the
	// shared lock. The data now moves, so only the shape of the
	// recommendation is compared.
	var inserted atomic.Int64
	wg.Add(1)
	go statement(func(i int) string {
		if i >= 200 {
			return ""
		}
		inserted.Add(1)
		return fmt.Sprintf("INSERT INTO f VALUES (%d, %d, %d)", 100000+i, i%500, i%7)
	})
	ddl := func(r *Recommendation) (out []string) {
		for _, p := range r.Indexes {
			out = append(out, p.DDL("x"))
		}
		return out
	}
	for i := 0; i < 5; i++ {
		rec, err := Tune(db, w, Options{})
		if err != nil || !slices.Equal(ddl(rec), ddl(quiet)) {
			t.Fatalf("Tune %d beside a writer: %v %v, want %v", i, ddl(rec), err, ddl(quiet))
		}
	}
	close(stop)
	wg.Wait()
	if len(db.Table("f").Secondaries) != 0 {
		t.Errorf("Tune left %d secondaries in the catalog", len(db.Table("f").Secondaries))
	}
	res, err := db.Exec("SELECT count(*) FROM f WHERE id >= 100000")
	if err != nil || res.Rows[0][0].Int() != inserted.Load() {
		t.Errorf("inserts landed: %v %v, want %d", res, err, inserted.Load())
	}
}
