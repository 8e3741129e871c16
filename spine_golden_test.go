// Executor golden test. The virtual-clock charges are this repo's
// stand-in for the paper's hardware, so they are pinned by committed
// numbers: for every query below the row count, an ordered digest of
// the rows, every field of vclock.Metrics, the EXPLAIN ANALYZE
// skeleton and, for a SELECT, plan.Shape of its plan (Parallel marks
// included) must equal testdata/spine_golden.json, at Parallelism 1
// and at Parallelism 8. The file was generated on the last commit that
// still shipped a second, row-at-a-time executor (dfebed4), with that
// executor asserted equal to the batch one wherever a row-wise operator
// reads a batch operator — so there the golden is the row spine's
// answer. The rowwise suite was added on the last commit that still
// built row-wise operators with a second builder beside BuildBatch, and
// the topn suite on the last commit whose morsel sort materialized and
// sorted every scanned row under a TOP. The nljseek suite was added on
// the last commit whose columnstore scans built a scanner per morsel,
// whose nested-loop join cloned the outer row per match and whose hash
// join grew its output vectors match by match, the aggkeys suite on
// the last commit whose hash aggregate kept a string-keyed group map
// beside the join's hash table, and the dml suite on the last commit
// whose UPDATE and DELETE read their target rows through a scan cursor
// of their own instead of exec.Execute. The cciseek suite was added on
// the last commit that planned an uncovered B+ tree secondary seek on a
// clustered-columnstore table, fetching each row by a columnstore scan.
// Regenerate only with
//
//	go test -run TestSpineGolden -update .
//
// and review the diff: a changed number is a changed cost model.
package hybriddb

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"hybriddb/internal/exec"
	"hybriddb/internal/metrics"
	"hybriddb/internal/optimizer"
	"hybriddb/internal/plan"
	"hybriddb/internal/sql"
	"hybriddb/internal/value"
	"hybriddb/internal/vclock"
	"hybriddb/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/spine_golden.json from this executor")

const spineGoldenPath = "testdata/spine_golden.json"

// spineOp is one operator of the EXPLAIN ANALYZE skeleton: what the
// plan did, not how the executor batched it (batches and
// worker<i>_rowgroups are spine bookkeeping).
type spineOp struct {
	Depth     int    `json:"depth"`
	Name      string `json:"name"`
	Rows      int64  `json:"rows"`
	Loops     int64  `json:"loops"`
	BytesRead int64  `json:"bytes_read"`
	TimeNS    int64  `json:"time_ns"`
}

type spineEntry struct {
	Name    string         `json:"name"`
	SQL     string         `json:"sql"`
	Rows    int64          `json:"rows"`
	Digest  string         `json:"digest"`
	Metrics vclock.Metrics `json:"metrics"`
	// Shape is plan.Shape of a SELECT's plan, Parallel marks included,
	// so a change to where the optimizer allows morsels shows here.
	Shape string    `json:"shape,omitempty"`
	Trace []spineOp `json:"trace,omitempty"`
}

type spineQuery struct {
	name, sql string
	dml       bool // mutates: every run gets a freshly built database
	// shape, when set, lists operator names the EXPLAIN ANALYZE trace
	// must contain in this order (depth first): the plan the entry is
	// there to pin.
	shape []string
	// grant, when set, is the query's memory grant in bytes. It must be
	// small enough that the query writes more than twice the grant to
	// the temp device, so at least three partials are merged.
	grant int64
	// check, when set on a dml entry, is a SELECT run after the
	// statement on the same database; its row digest is the entry's
	// Digest, so the golden pins which rows the statement changed.
	check string
}

type spineSuite struct {
	name    string
	build   func(testing.TB) *DB
	queries []spineQuery
}

func mustExecAll(tb testing.TB, db *DB, stmts ...string) {
	tb.Helper()
	for _, s := range stmts {
		if _, err := db.Exec(s); err != nil {
			tb.Fatalf("%.60s: %v", s, err)
		}
	}
}

// spineCHDB is the paper's hybrid design on a 2-warehouse CH database:
// secondary columnstores on the analytic tables, B+ trees underneath.
func spineCHDB(tb testing.TB) *DB {
	cfg := workload.DefaultCH()
	cfg.Warehouses = 2
	cfg.CustomersPerD = 60
	cfg.OrdersPerD = 80
	cfg.ItemCount = 400
	cfg.RowGroupSize = 1024
	db := Wrap(workload.BuildCH(vclock.DefaultModel(vclock.DRAM), cfg))
	for _, tbl := range []string{"orderline", "oorder", "stock", "ch_item", "ch_customer", "ch_supplier"} {
		mustExecAll(tb, db, "CREATE NONCLUSTERED COLUMNSTORE INDEX csi_"+tbl+" ON "+tbl)
	}
	return db
}

func spineMicroDB(ddl string) func(testing.TB) *DB {
	return func(tb testing.TB) *DB {
		cfg := workload.DefaultMicro()
		cfg.Rows, cfg.Cols, cfg.MaxValue, cfg.RowGroupSize = 50_000, 2, 1000, 4096
		db := Wrap(workload.BuildMicro(vclock.DefaultModel(vclock.DRAM), cfg))
		mustExecAll(tb, db, ddl)
		return db
	}
}

func spineTPCHDB(ddl string) func(testing.TB) *DB {
	return func(tb testing.TB) *DB {
		db := Wrap(workload.BuildTPCH(vclock.DefaultModel(vclock.DRAM),
			workload.TPCHConfig{LineitemRows: 24_000, RowGroupSize: 2048, Seed: 7}))
		mustExecAll(tb, db, ddl)
		return db
	}
}

func insertValues(n int, row func(i int) string) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(row(i))
	}
	return sb.String()
}

// spineDimFactDB puts row-wise operators above columnstore children: dim and
// dim2 are clustered columnstores, fact and fact2 are clustered B+
// trees on the join key, so dim⋈fact is a nested-loop join with a
// columnstore outer, fact⋈fact2 a merge join and GROUP BY f_d a stream
// aggregate.
func spineDimFactDB(tb testing.TB) *DB {
	db := Open(WithRowGroupSize(1024))
	mustExecAll(tb, db,
		`CREATE TABLE dim (d_id BIGINT, d_grp BIGINT, d_attr BIGINT, d_name VARCHAR(16))`,
		`CREATE TABLE dim2 (e_id BIGINT, e_cat BIGINT)`,
		`CREATE TABLE fact (f_d BIGINT, f_seq BIGINT, f_val BIGINT, f_amt DOUBLE, PRIMARY KEY (f_d, f_seq))`,
		`CREATE TABLE fact2 (g_d BIGINT, g_seq BIGINT, g_val BIGINT, PRIMARY KEY (g_d, g_seq))`,
		"INSERT INTO dim VALUES "+insertValues(5000, func(i int) string {
			return fmt.Sprintf("(%d,%d,%d,'n%d')", i, i%7, (i*37)%1000, i%11)
		}),
		"INSERT INTO dim2 VALUES "+insertValues(3000, func(i int) string {
			return fmt.Sprintf("(%d,%d)", i, i%5)
		}),
		"INSERT INTO fact VALUES "+insertValues(40000, func(i int) string {
			return fmt.Sprintf("(%d,%d,%d,%d.5)", (i*7)%5000, i, i%97, i%1000)
		}),
		"INSERT INTO fact2 VALUES "+insertValues(6000, func(i int) string {
			return fmt.Sprintf("(%d,%d,%d)", (i*11)%5000, i, i%13)
		}),
		`CREATE CLUSTERED COLUMNSTORE INDEX cci ON dim`,
		`CREATE CLUSTERED COLUMNSTORE INDEX cci2 ON dim2`,
	)
	return db
}

// spineRowwiseDB adds the row-wise leaves spineDimFactDB lacks: a heap
// table hp and a non-covering secondary B+ tree on fact.f_val. It is a
// database of its own so that no dimfact entry's plan can move.
func spineRowwiseDB(tb testing.TB) *DB {
	db := spineDimFactDB(tb)
	mustExecAll(tb, db,
		`CREATE TABLE hp (h_k BIGINT, h_v BIGINT, h_s VARCHAR(8))`,
		"INSERT INTO hp VALUES "+insertValues(3000, func(i int) string {
			return fmt.Sprintf("(%d,%d,'s%d')", (i*13)%5000, i%10, i%7)
		}),
		`CREATE INDEX ix_fval ON fact (f_val)`,
	)
	return db
}

// spineNLJSeekDB is spineCHDB plus the B+ tree secondaries of the
// benchmark's hybrid design, so that an item-filtered orderline join
// seeks ix_ol_item per item row.
func spineNLJSeekDB(tb testing.TB) *DB {
	db := spineCHDB(tb)
	mustExecAll(tb, db,
		"CREATE INDEX ix_ol_item ON orderline (ol_i_id) INCLUDE (ol_amount, ol_quantity)",
		"CREATE INDEX ix_ol_order ON orderline (ol_o_id) INCLUDE (ol_w_id, ol_d_id, ol_amount)",
		"CREATE INDEX ix_stock_item ON stock (s_i_id) INCLUDE (s_quantity)",
	)
	return db
}

// spineAggKeysDB holds the key kinds a GROUP BY must keep apart or
// together: akc (clustered columnstore) and akb (B+ tree clustered on f)
// carry the same 24 000 rows, akd is a columnstore dimension joined on
// akc.g. g is a BIGINT of ~3 600 values with NULLs, f a DOUBLE holding
// both −0.0 and +0.0 and NULLs, s a VARCHAR holding both the empty
// string and NULL, d a DATE and b a BOOLEAN, each with NULLs, and v a
// DOUBLE whose sums depend on the order they are added in. The rows are loaded through the
// table API, because SQL has no literal for −0.0.
func spineAggKeysDB(tb testing.TB) *DB {
	db := Open(WithRowGroupSize(1024))
	cols := "(k BIGINT, g BIGINT, f DOUBLE, s VARCHAR(8), d DATE, b BOOLEAN, v DOUBLE)"
	mustExecAll(tb, db, "CREATE TABLE akc "+cols, "CREATE TABLE akb "+cols,
		"CREATE TABLE akd (dk BIGINT, dname VARCHAR(8))")
	rows := make([]value.Row, 24_000)
	for i := range rows {
		r := value.Row{value.NewInt(int64(i)), value.NewInt(int64(i*7919) % 3600),
			value.NewFloat(float64(i%9) * 0.25), value.NewString(fmt.Sprintf("s%d", i%50)),
			value.NewDate(int64(18_000 + i%40)), value.NewBool(i%3 == 0), value.NewFloat(float64(i%1000) / 7)}
		if i%101 == 0 {
			r[1] = value.Null
		}
		switch i % 9 {
		case 0:
			r[2] = value.NewFloat(math.Copysign(0, -1))
		case 2:
			r[2] = value.Null
		}
		switch i % 13 {
		case 0:
			r[3] = value.Null
		case 1:
			r[3] = value.NewString("")
		}
		if i%5 == 0 {
			r[4] = value.Null
		}
		if i%3 == 2 {
			r[5] = value.Null
		}
		rows[i] = r
	}
	dim := make([]value.Row, 4000)
	for i := range dim {
		dim[i] = value.Row{value.NewInt(int64(i)), value.NewString(fmt.Sprintf("n%d", i%17))}
		switch i % 7 {
		case 0:
			dim[i][1] = value.Null
		case 1:
			dim[i][1] = value.NewString("")
		}
	}
	in := db.Internal()
	in.Table("akc").BulkLoad(nil, rows)
	in.Table("akb").BulkLoad(nil, rows)
	in.Table("akd").BulkLoad(nil, dim)
	mustExecAll(tb, db,
		"CREATE CLUSTERED COLUMNSTORE INDEX ccic ON akc",
		"CREATE CLUSTERED INDEX cib ON akb (f)",
		"CREATE CLUSTERED COLUMNSTORE INDEX ccid ON akd",
	)
	return db
}

// spineDMLDB holds one table per access path a DML statement can
// locate its rows through: dh a heap, dc a B+ tree clustered on c_k
// with an uncovered secondary on c_v and a covering one on c_w, dcc a
// clustered columnstore (deletes go to its bitmaps), and dn a B+ tree
// whose nonclustered columnstore holds delta rows and buffered deletes
// when a statement runs.
func spineDMLDB(tb testing.TB) *DB {
	db := Open(WithRowGroupSize(1024))
	mustExecAll(tb, db,
		"CREATE TABLE dh (h_k BIGINT, h_v BIGINT, h_s VARCHAR(8))",
		"CREATE TABLE dc (c_k BIGINT, c_v BIGINT, c_w BIGINT, c_s VARCHAR(8))",
		"CREATE TABLE dcc (k BIGINT, g BIGINT, v DOUBLE)",
		"CREATE TABLE dn (n_k BIGINT, n_g BIGINT, n_v BIGINT)")
	load := func(name string, n int, row func(i int) value.Row) {
		rows := make([]value.Row, n)
		for i := range rows {
			rows[i] = row(i)
		}
		db.Internal().Table(name).BulkLoad(nil, rows)
	}
	load("dh", 2000, func(i int) value.Row {
		return value.Row{value.NewInt(int64(i*13) % 5000), value.NewInt(int64(i % 10)), value.NewString(fmt.Sprintf("s%d", i%7))}
	})
	load("dc", 8000, func(i int) value.Row {
		return value.Row{value.NewInt(int64(i)), value.NewInt(int64(i*7) % 1000), value.NewInt(int64(i*11) % 400), value.NewString(fmt.Sprintf("s%d", i%9))}
	})
	load("dcc", 8192, func(i int) value.Row {
		return value.Row{value.NewInt(int64(i)), value.NewInt(int64(i*31) % 100), value.NewFloat(float64(i%1000) / 8)}
	})
	load("dn", 6000, func(i int) value.Row {
		return value.Row{value.NewInt(int64(i)), value.NewInt(int64(i % 12)), value.NewInt(int64(i*3) % 700)}
	})
	mustExecAll(tb, db,
		"CREATE CLUSTERED INDEX cix_dc ON dc (c_k)",
		"CREATE INDEX ix_dc_v ON dc (c_v)",
		"CREATE INDEX ix_dc_w ON dc (c_w) INCLUDE (c_v, c_s)",
		"CREATE CLUSTERED COLUMNSTORE INDEX cci_dcc ON dcc",
		"CREATE CLUSTERED INDEX cix_dn ON dn (n_k)",
		"CREATE NONCLUSTERED COLUMNSTORE INDEX csi_dn ON dn",
		"INSERT INTO dn VALUES "+insertValues(300, func(i int) string {
			return fmt.Sprintf("(%d,%d,%d)", 6000+i, i%12, i%50)
		}),
		"DELETE FROM dn WHERE n_k < 150",
		"UPDATE dn SET n_v = n_v + 1000 WHERE n_k >= 2000 AND n_k < 2100",
	)
	csi := db.Internal().Table("dn").SecondaryCSI().CSI
	if csi.DeltaRows() == 0 || csi.BufferedDeletes() == 0 {
		tb.Fatalf("dn's columnstore holds %d delta rows and %d buffered deletes, want both", csi.DeltaRows(), csi.BufferedDeletes())
	}
	return db
}

// spineCCISeekDB holds cs, a 20 000-row clustered columnstore with an
// uncovered B+ tree secondary on f, and ob, a B+ tree table whose o_f
// joins cs.f: a point query on f, an UPDATE located by f and a join of
// a few ob rows into cs could each seek ix_cs_f.
func spineCCISeekDB(tb testing.TB) *DB {
	db := Open(WithRowGroupSize(1024))
	mustExecAll(tb, db,
		"CREATE TABLE cs (k BIGINT, f BIGINT, v DOUBLE, s VARCHAR(8))",
		"CREATE TABLE ob (o_k BIGINT, o_f BIGINT, o_g BIGINT, PRIMARY KEY (o_k))")
	cs := make([]value.Row, 20_000)
	for i := range cs {
		cs[i] = value.Row{value.NewInt(int64(i)), value.NewInt(int64(i*7) % 5000),
			value.NewFloat(float64(i%1000) / 8), value.NewString(fmt.Sprintf("s%d", i%9))}
	}
	ob := make([]value.Row, 400)
	for i := range ob {
		ob[i] = value.Row{value.NewInt(int64(i)), value.NewInt(int64(i*13) % 5000), value.NewInt(int64(i % 40))}
	}
	db.Internal().Table("cs").BulkLoad(nil, cs)
	db.Internal().Table("ob").BulkLoad(nil, ob)
	mustExecAll(tb, db,
		"CREATE CLUSTERED COLUMNSTORE INDEX cci_cs ON cs",
		"CREATE INDEX ix_cs_f ON cs (f)",
	)
	return db
}

// dmlAccess describes the scan a DML statement locates its rows with:
// the access path, whether a secondary seek covers the row, and whether
// any conjunct is pushed into the columnstore kernels.
func dmlAccess(tb testing.TB, db *DB, query string) []string {
	tb.Helper()
	st, err := sql.ParseOne(query)
	if err != nil {
		tb.Fatalf("%s: %v", query, err)
	}
	b := sql.NewBinder(db.Internal())
	var tbl string
	var conj []sql.Expr
	switch st := st.(type) {
	case *sql.UpdateStmt:
		bound, err := b.BindUpdate(st)
		if err != nil {
			tb.Fatalf("%s: %v", query, err)
		}
		tbl, conj = bound.Table, bound.Conjuncts
	case *sql.DeleteStmt:
		bound, err := b.BindDelete(st)
		if err != nil {
			tb.Fatalf("%s: %v", query, err)
		}
		tbl, conj = bound.Table, bound.Conjuncts
	default:
		tb.Fatalf("%s: not an UPDATE or DELETE", query)
	}
	scan := optimizer.ChooseDMLScan(db.Internal().Table(tbl), conj, optimizer.Options{Model: db.Internal().Model()})
	out := []string{scan.Describe()}
	if scan.Access == plan.AccessSecondarySeek {
		out = append(out, map[bool]string{true: "covered", false: "uncovered"}[scan.Covered])
	}
	if len(scan.Push) > 0 {
		out = append(out, "push")
	}
	return out
}

func spineSuites() []spineSuite {
	var ch []spineQuery
	for i, q := range workload.CHQueries() {
		ch = append(ch, spineQuery{name: fmt.Sprintf("Q%02d", i+1), sql: q})
	}
	// Bare TOP (nothing blocking between it and the source) is the one
	// place execution granularity is observable: per-row filter, probe
	// and seek charges must stop with the last row TOP pulls.
	ch = append(ch,
		spineQuery{name: "top_scan", sql: `SELECT TOP 10 ol_o_id, ol_amount FROM orderline`},
		spineQuery{name: "top_scan_pushed", sql: `SELECT TOP 10 ol_o_id, ol_amount FROM orderline WHERE ol_quantity < 4`},
		spineQuery{name: "top_scan_many_batches", sql: `SELECT TOP 5000 ol_o_id, ol_amount FROM orderline WHERE ol_amount > 100`},
		spineQuery{name: "top_hashjoin_dop40", sql: `SELECT TOP 10 i_im_id, ol_amount FROM orderline JOIN ch_item ON ol_i_id = i_id`},
		spineQuery{name: "top_hashjoin_many_batches", sql: `SELECT TOP 3000 i_im_id, ol_amount FROM orderline JOIN ch_item ON ol_i_id = i_id WHERE i_price < 50`},
		spineQuery{name: "top_filter_hashjoin_dop40", sql: `SELECT TOP 10 i_im_id, ol_amount FROM orderline JOIN ch_item ON ol_i_id = i_id WHERE ol_amount > i_price`},
		spineQuery{name: "top_filter_hashjoin_many_batches", sql: `SELECT TOP 2000 i_im_id, ol_amount FROM orderline JOIN ch_item ON ol_i_id = i_id WHERE ol_amount > i_price * 3`},
		spineQuery{name: "top_hashjoin_residual", sql: `SELECT TOP 10 o_id, ol_amount FROM oorder JOIN orderline ON ol_o_id = o_id WHERE ol_w_id = o_w_id AND ol_d_id = o_d_id`},
		spineQuery{name: "top_hashjoin_serial", sql: `SELECT TOP 10 s_i_id, s_quantity FROM stock JOIN ch_item ON s_i_id = i_id WHERE s_quantity > 50`},
		spineQuery{name: "top_hashjoin_both_filtered", sql: `SELECT TOP 10 c_id, o_id FROM ch_customer JOIN oorder ON o_c_id = c_id WHERE c_d_id = 3 AND o_d_id = 3`},
		spineQuery{name: "top_over_hashagg", sql: `SELECT TOP 7 ol_number, count(*) FROM orderline GROUP BY ol_number`},
		spineQuery{name: "top_over_sort", sql: `SELECT TOP 7 ol_o_id, ol_amount FROM orderline ORDER BY ol_amount DESC`},
	)

	micro := []spineQuery{
		{name: "Q1", sql: workload.Q1(0.1, 1000)},
		{name: "Q2", sql: workload.Q2(0.05, 1000)},
		{name: "Q3", sql: workload.Q3()},
	}
	tpch := []spineQuery{
		{name: "Q4", sql: workload.Q4(100, workload.ShipDate(100)), dml: true},
		{name: "Q5", sql: workload.Q5Range(workload.ShipDate(100), workload.ShipDate(400))},
	}

	dimFact := []spineQuery{
		{name: "nlj_under_hashagg", sql: `SELECT d_grp, sum(f_amt) FROM dim JOIN fact ON f_d = d_id WHERE d_attr < 50 GROUP BY d_grp`},
		{name: "nlj_under_sort", sql: `SELECT d_id, f_val FROM dim JOIN fact ON f_d = d_id WHERE d_attr < 50 ORDER BY f_val, d_id`},
		{name: "nlj_under_top", sql: `SELECT TOP 10 d_id, f_val FROM dim JOIN fact ON f_d = d_id WHERE d_attr < 50`},
		{name: "nlj_under_hashjoin", sql: `SELECT e_cat, count(*) FROM dim JOIN fact ON f_d = d_id JOIN dim2 ON e_id = f_val WHERE d_attr < 50 GROUP BY e_cat`},
		{name: "top_filter_hashjoin_nlj", sql: `SELECT TOP 10 d_id, f_val, e_cat FROM dim JOIN fact ON f_d = d_id JOIN dim2 ON e_id = f_val WHERE d_attr < 50 AND f_val > e_cat`},
		{name: "top_hashjoin_nlj", sql: `SELECT TOP 10 d_id, f_val, e_cat FROM dim JOIN fact ON f_d = d_id JOIN dim2 ON e_id = f_val WHERE d_attr < 50`},
		{name: "top_hashjoin_btree_probe", sql: `SELECT TOP 2000 d_id, f_val FROM dim JOIN fact ON f_d = d_id WHERE d_attr < 300`},
		{name: "top_project_streamagg", sql: `SELECT TOP 5 f_d, count(*) FROM fact GROUP BY f_d`},
		{name: "top_project_streamagg_expr", sql: `SELECT TOP 5 f_d, sum(f_amt) * 2 FROM fact WHERE f_d > 100 GROUP BY f_d`},
		{name: "streamagg_drained", sql: `SELECT f_d, count(*) FROM fact GROUP BY f_d`},
		{name: "nlj_drained", sql: `SELECT d_id, f_val FROM dim JOIN fact ON f_d = d_id WHERE d_attr < 50`},
		{name: "top_cci_scan", sql: `SELECT TOP 10 d_id, d_attr FROM dim WHERE d_attr < 500`},
		{name: "mergejoin", sql: `SELECT f_d, f_val, g_val FROM fact JOIN fact2 ON g_d = f_d WHERE f_val < 3`},
		{name: "top_mergejoin", sql: `SELECT TOP 10 f_d, f_val, g_val FROM fact JOIN fact2 ON g_d = f_d WHERE f_val < 3`},
	}

	rowwise := []spineQuery{
		{name: "top_heapscan", sql: `SELECT TOP 5 h_k, h_s FROM hp WHERE h_v = 3`},
		{name: "heapscan_under_hashagg", sql: `SELECT h_v, count(*) FROM hp GROUP BY h_v`},
		{name: "top_lookup_seek", sql: `SELECT TOP 5 f_d, f_amt FROM fact WHERE f_val = 3`},
		{name: "lookup_seek_drained", sql: `SELECT f_d, f_amt FROM fact WHERE f_val = 3`},
		{name: "seek_hashjoin_build_top_hashagg", sql: `SELECT TOP 3 f_d, count(*) FROM fact JOIN fact2 ON g_d = f_d WHERE f_val < 3 GROUP BY f_d`},
		{name: "top_nlj_heap_outer", sql: `SELECT TOP 5 h_k, f_val FROM hp JOIN fact ON f_d = h_k WHERE h_v = 2`},
	}

	// TOP over a sort fed by a columnstore scan fuses into the
	// morsel-driven sort (every query but the last runs at DOP 40): ties
	// at the TOP boundary, a DESC key, a TOP past one morsel's rows, an
	// expression key, TOP 1, and the plain ORDER BY path beside them.
	// The last is the serial sorter under TOP.
	topn := []spineQuery{
		{name: "top_sort_tie_boundary", sql: `SELECT TOP 7 ol_o_id, ol_number, ol_quantity FROM orderline ORDER BY ol_quantity`},
		{name: "top_sort_ties_desc_filtered", sql: `SELECT TOP 50 ol_w_id, ol_d_id, ol_o_id, ol_quantity FROM orderline WHERE ol_amount > 100 ORDER BY ol_quantity DESC, ol_d_id`},
		{name: "top_sort_past_morsel", sql: `SELECT TOP 3000 ol_o_id, ol_number, ol_amount FROM orderline WHERE ol_quantity < 3 ORDER BY ol_amount`},
		{name: "top_sort_expr_key", sql: `SELECT TOP 10 ol_o_id, ol_number FROM orderline ORDER BY ol_amount * ol_quantity DESC, ol_o_id`},
		{name: "top_sort_one", sql: `SELECT TOP 1 ol_w_id, ol_d_id, ol_o_id, ol_number FROM orderline ORDER BY ol_amount DESC, ol_w_id, ol_d_id, ol_o_id, ol_number`},
		{name: "sort_morsel_full", sql: `SELECT ol_o_id, ol_number, ol_amount FROM orderline WHERE ol_quantity < 2 ORDER BY ol_amount DESC, ol_o_id, ol_number`},
		{name: "top_sort_serial_ties", sql: `SELECT TOP 5 o_id, o_ol_cnt FROM oorder WHERE o_carrier_id = 3 ORDER BY o_ol_cnt`},
	}

	// Nested-loop joins into a B+ tree secondary seek — covered (CH
	// Q14's shape), covered with a residual on the inner (Q17's), and
	// uncovered, fetching each base row — and hash joins whose probe
	// batches emit several batch sizes of rows (serial at Parallelism
	// 1, the fused morsel probe at 8).
	nljSeek := []spineQuery{
		{name: "nlj_seek_covered", sql: `SELECT i_im_id, sum(ol_amount), count(*) FROM orderline JOIN ch_item ON ol_i_id = i_id WHERE i_im_id < 1000 GROUP BY i_im_id`,
			shape: []string{"HashAggregate", "NestedLoopJoin", "ColumnstoreScan(ch_item)", "SecondarySeek(orderline)"}},
		{name: "nlj_seek_covered_residual", sql: `SELECT i_im_id, sum(ol_amount), count(*) FROM orderline JOIN ch_item ON ol_i_id = i_id WHERE i_im_id < 1000 AND ol_quantity < 4 GROUP BY i_im_id`,
			shape: []string{"HashAggregate", "NestedLoopJoin", "ColumnstoreScan(ch_item)", "SecondarySeek(orderline)"}},
		{name: "nlj_seek_uncovered", sql: `SELECT i_im_id, max(ol_delivery_d), count(*) FROM orderline JOIN ch_item ON ol_i_id = i_id WHERE i_id < 4 GROUP BY i_im_id`,
			shape: []string{"HashAggregate", "NestedLoopJoin", "ColumnstoreScan(ch_item)", "SecondarySeek(orderline)"}},
		{name: "top_nlj_seek_residual", sql: `SELECT TOP 20 i_id, ol_amount, ol_quantity FROM orderline JOIN ch_item ON ol_i_id = i_id WHERE i_im_id < 1000 AND ol_quantity < 4`,
			shape: []string{"Top", "NestedLoopJoin", "ColumnstoreScan(ch_item)", "SecondarySeek(orderline)"}},
		{name: "nlj_seek_under_sort", sql: `SELECT i_id, ol_amount, ol_quantity FROM orderline JOIN ch_item ON ol_i_id = i_id WHERE i_price < 3 AND ol_quantity < 4 ORDER BY ol_amount, i_id`,
			shape: []string{"Sort", "NestedLoopJoin", "ColumnstoreScan(ch_item)", "SecondarySeek(orderline)"}},
		{name: "hashjoin_fanout", sql: `SELECT o_c_id, sum(ol_amount) FROM oorder JOIN orderline ON ol_o_id = o_id GROUP BY o_c_id`,
			shape: []string{"HashAggregate", "HashJoin", "ColumnstoreScan(oorder)", "ColumnstoreScan(orderline)"}},
		{name: "hashjoin_fanout_filtered", sql: `SELECT o_c_id, ol_number, sum(ol_amount) FROM oorder JOIN orderline ON ol_o_id = o_id WHERE o_d_id < 4 GROUP BY o_c_id, ol_number`,
			shape: []string{"HashAggregate", "HashJoin", "ColumnstoreScan(oorder)", "ColumnstoreScan(orderline)"}},
	}

	// GROUP BY keys of every kind, NULLs, −0.0 beside +0.0 and '' beside
	// NULL among them, on each aggregation path: batch mode over a
	// columnstore (serial and morsel partials), row rate over a B+ tree
	// and over a hash join, a stream aggregate over the clustered key,
	// DISTINCT beside the groups, an empty scalar aggregate, and two
	// spills under a small grant.
	hashAggCCI := []string{"HashAggregate", "ColumnstoreScan(akc)"}
	hashAggBtree := []string{"HashAggregate", "ClusteredScan(akb)"}
	aggKeys := []spineQuery{
		{name: "cci_bigint_nulls", sql: `SELECT g, count(*), sum(v) FROM akc GROUP BY g`, shape: hashAggCCI},
		{name: "cci_bigint_filtered", sql: `SELECT g, count(*), min(v) FROM akc WHERE k < 9000 GROUP BY g`, shape: hashAggCCI},
		{name: "cci_double_zeros", sql: `SELECT f, count(*), sum(v) FROM akc GROUP BY f`, shape: hashAggCCI},
		{name: "cci_varchar_empty_null", sql: `SELECT s, count(*), min(k) FROM akc GROUP BY s`, shape: hashAggCCI},
		{name: "cci_date_bool", sql: `SELECT d, b, count(*), max(v) FROM akc GROUP BY d, b`, shape: hashAggCCI},
		{name: "cci_two_col", sql: `SELECT g, s, count(*), sum(v) FROM akc GROUP BY g, s`, shape: hashAggCCI},
		{name: "cci_scalar_empty", sql: `SELECT count(*), sum(v), min(s) FROM akc WHERE k < 0`, shape: hashAggCCI},
		{name: "btree_bigint_nulls", sql: `SELECT g, count(*), sum(v) FROM akb GROUP BY g`, shape: hashAggBtree},
		{name: "btree_varchar_bool", sql: `SELECT s, b, count(*), sum(v) FROM akb GROUP BY s, b`, shape: hashAggBtree},
		{name: "hashagg_over_hashjoin", sql: `SELECT dname, b, count(*), sum(v) FROM akc JOIN akd ON g = dk GROUP BY dname, b`,
			shape: []string{"HashAggregate", "HashJoin"}},
		{name: "streamagg_clustered_double", sql: `SELECT f, count(*), sum(v) FROM akb GROUP BY f`,
			shape: []string{"StreamAggregate", "ClusteredScan(akb)"}},
		{name: "distinct_beside_groupby", sql: `SELECT b, count(DISTINCT s), count(*), sum(v) FROM akc GROUP BY b`, shape: hashAggCCI},
		{name: "spill_cci_double_sum", sql: `SELECT g, sum(v), count(*) FROM akc WHERE k < 9000 GROUP BY g`, shape: hashAggCCI, grant: 64 << 10},
		{name: "spill_btree_two_col", sql: `SELECT g, s, count(*) FROM akb GROUP BY g, s`, shape: hashAggBtree, grant: 64 << 10},
	}

	// UPDATE and DELETE, with and without TOP and with TOP (0), through
	// every access path DML locates rows with. shape is the chosen scan
	// (dmlAccess); check reads back what the statement left.
	checkDH := `SELECT h_k, h_v, h_s FROM dh ORDER BY h_k`
	checkDC := `SELECT c_k, c_v, c_w, c_s FROM dc ORDER BY c_k`
	checkDCC := `SELECT k, g, v FROM dcc ORDER BY k`
	checkDN := `SELECT n_k, n_g, n_v FROM dn ORDER BY n_k`
	dml := []spineQuery{
		{name: "heap_update", sql: `UPDATE dh SET h_v = h_v + 100 WHERE h_s = 's3'`,
			dml: true, check: checkDH, shape: []string{"HeapScan(dh)"}},
		{name: "heap_delete_top", sql: `DELETE TOP (40) FROM dh WHERE h_v = 3`,
			dml: true, check: checkDH, shape: []string{"HeapScan(dh)"}},
		{name: "clustered_seek_update", sql: `UPDATE dc SET c_s = 'u' WHERE c_k BETWEEN 100 AND 400`,
			dml: true, check: checkDC, shape: []string{"ClusteredSeek(dc)"}},
		{name: "clustered_seek_delete_top", sql: `DELETE TOP (10) FROM dc WHERE c_k > 500 AND c_k <= 900`,
			dml: true, check: checkDC, shape: []string{"ClusteredSeek(dc)"}},
		{name: "clustered_seek_update_top_zero", sql: `UPDATE TOP (0) dc SET c_v = 1 WHERE c_k < 50`,
			dml: true, check: checkDC, shape: []string{"ClusteredSeek(dc)"}},
		{name: "clustered_scan_update_top", sql: `UPDATE TOP (30) dc SET c_v = c_v + 1 WHERE c_s = 's2'`,
			dml: true, check: checkDC, shape: []string{"ClusteredScan(dc)"}},
		{name: "clustered_scan_delete", sql: `DELETE FROM dc WHERE c_s = 's5'`,
			dml: true, check: checkDC, shape: []string{"ClusteredScan(dc)"}},
		{name: "uncovered_seek_update", sql: `UPDATE dc SET c_s = 'x' WHERE c_v = 17`,
			dml: true, check: checkDC, shape: []string{"SecondarySeek(dc)", "uncovered"}},
		{name: "uncovered_seek_delete_top", sql: `DELETE TOP (3) FROM dc WHERE c_v = 18`,
			dml: true, check: checkDC, shape: []string{"SecondarySeek(dc)", "uncovered"}},
		{name: "covered_seek_update_top", sql: `UPDATE TOP (5) dc SET c_v = 0 WHERE c_w > 5 AND c_w < 8`,
			dml: true, check: checkDC, shape: []string{"SecondarySeek(dc)", "covered"}},
		{name: "covered_seek_delete", sql: `DELETE FROM dc WHERE c_w > 2 AND c_w <= 4`,
			dml: true, check: checkDC, shape: []string{"SecondarySeek(dc)", "covered"}},
		{name: "cci_delete", sql: `DELETE FROM dcc WHERE g < 10`,
			dml: true, check: checkDCC, shape: []string{"ColumnstoreScan(dcc)", "push"}},
		{name: "cci_update_top", sql: `UPDATE TOP (25) dcc SET v = v + 1 WHERE g = 3`,
			dml: true, check: checkDCC, shape: []string{"ColumnstoreScan(dcc)", "push"}},
		{name: "cci_update", sql: `UPDATE dcc SET v = v * 2 WHERE g >= 95 AND v > 100`,
			dml: true, check: checkDCC, shape: []string{"ColumnstoreScan(dcc)", "push"}},
		{name: "cci_delete_top", sql: `DELETE TOP (100) FROM dcc WHERE v > 50`,
			dml: true, check: checkDCC, shape: []string{"ColumnstoreScan(dcc)"}},
		{name: "cci_delete_top_zero", sql: `DELETE TOP (0) FROM dcc WHERE g < 10`,
			dml: true, check: checkDCC, shape: []string{"ColumnstoreScan(dcc)", "push"}},
		{name: "ncci_update", sql: `UPDATE dn SET n_v = n_v + 1 WHERE n_g = 4`,
			dml: true, check: checkDN, shape: []string{"ColumnstoreScan(dn)", "push"}},
		{name: "ncci_delete_top", sql: `DELETE TOP (20) FROM dn WHERE n_g = 5`,
			dml: true, check: checkDN, shape: []string{"ColumnstoreScan(dn)", "push"}},
	}

	// An uncovered secondary seek on a clustered-columnstore table is
	// never built (optimizer.seekable): a point SELECT, an UPDATE located
	// by the same column and a join that could seek it per outer row
	// each scan the columnstore once.
	cciSeek := []spineQuery{
		{name: "point_select", sql: `SELECT k, v, s FROM cs WHERE f = 17`,
			shape: []string{"ColumnstoreScan(cs)"}},
		{name: "update", sql: `UPDATE cs SET v = v + 1 WHERE f = 23`,
			dml: true, check: `SELECT k, f, v, s FROM cs ORDER BY k`, shape: []string{"ColumnstoreScan(cs)", "push"}},
		{name: "join_inner", sql: `SELECT o_k, k, v FROM ob JOIN cs ON f = o_f WHERE o_g = 3 ORDER BY o_k, k`,
			shape: []string{"HashJoin", "ClusteredScan(ob)", "ColumnstoreScan(cs)"}},
	}

	return []spineSuite{
		{name: "ch", build: spineCHDB, queries: ch},
		{name: "micro_btree", build: spineMicroDB("CREATE CLUSTERED INDEX cix ON t (col1)"), queries: micro},
		{name: "micro_cci", build: spineMicroDB("CREATE CLUSTERED COLUMNSTORE INDEX cci ON t"), queries: micro},
		{name: "tpch_btree", build: spineTPCHDB("CREATE CLUSTERED INDEX cix ON lineitem (l_shipdate)"), queries: tpch},
		{name: "tpch_cci", build: spineTPCHDB("CREATE CLUSTERED COLUMNSTORE INDEX cci ON lineitem"), queries: tpch},
		{name: "dimfact", build: spineDimFactDB, queries: dimFact},
		{name: "rowwise", build: spineRowwiseDB, queries: rowwise},
		{name: "topn", build: spineCHDB, queries: topn},
		{name: "nljseek", build: spineNLJSeekDB, queries: nljSeek},
		{name: "aggkeys", build: spineAggKeysDB, queries: aggKeys},
		{name: "dml", build: spineDMLDB, queries: dml},
		{name: "cciseek", build: spineCCISeekDB, queries: cciSeek},
	}
}

// rowsDigest hashes rows in order, kind-tagged so 1 and 1.0 differ.
func rowsDigest(rows []value.Row) string {
	h := sha256.New()
	var buf [9]byte
	for _, r := range rows {
		for _, v := range r {
			buf[0] = byte(v.Kind())
			switch v.Kind() {
			case value.KindNull:
				h.Write(buf[:1])
			case value.KindFloat:
				binary.BigEndian.PutUint64(buf[1:], math.Float64bits(v.Float()))
				h.Write(buf[:])
			case value.KindString:
				binary.BigEndian.PutUint64(buf[1:], uint64(len(v.Str())))
				h.Write(buf[:])
				h.Write([]byte(v.Str()))
			case value.KindBool:
				buf[1] = 0
				if v.Bool() {
					buf[1] = 1
				}
				h.Write(buf[:2])
			default:
				binary.BigEndian.PutUint64(buf[1:], uint64(v.Int()))
				h.Write(buf[:])
			}
		}
		h.Write([]byte{0xff})
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

func traceSkeleton(tn *metrics.TraceNode, depth int, out []spineOp) []spineOp {
	for _, c := range tn.Children {
		loops := c.Loops
		if loops == 0 {
			loops = 1
		}
		out = append(out, spineOp{Depth: depth, Name: c.Name, Rows: c.Rows, Loops: loops,
			BytesRead: c.BytesRead, TimeNS: c.Time.Nanoseconds()})
		out = traceSkeleton(c, depth+1, out)
	}
	return out
}

// runSpineQuery executes q once under opts and reduces it to a golden
// entry. SELECTs run twice — plain for the rows, EXPLAIN ANALYZE for
// the trace — and the two runs must agree on Metrics.
func runSpineQuery(tb testing.TB, s spineSuite, db *DB, q spineQuery, opts ExecOptions) spineEntry {
	tb.Helper()
	name := s.name + "/" + q.name
	if q.dml {
		db = s.build(tb)
		if q.shape != nil {
			if got := dmlAccess(tb, db, q.sql); !reflect.DeepEqual(got, q.shape) {
				tb.Errorf("%s: locates its rows with %v, want %v", name, got, q.shape)
			}
		}
	}
	opts.MemGrant = q.grant
	res, err := db.Exec(q.sql, opts)
	if err != nil {
		tb.Fatalf("%s: %v", name, err)
	}
	e := spineEntry{Name: name, SQL: q.sql, Rows: int64(len(res.Rows)),
		Digest: rowsDigest(res.Rows), Metrics: res.Metrics}
	if q.dml {
		e.Rows = res.RowsAffected
		if q.check != "" {
			chk, err := db.Exec(q.check)
			if err != nil {
				tb.Fatalf("%s: check: %v", name, err)
			}
			e.Digest = rowsDigest(chk.Rows)
		}
		return e
	}
	ex, err := db.Exec("EXPLAIN ANALYZE "+q.sql, opts)
	if err != nil {
		tb.Fatalf("%s: explain analyze: %v", name, err)
	}
	if ex.Metrics != res.Metrics {
		tb.Errorf("%s: EXPLAIN ANALYZE metrics %v differ from the plain run's %v", name, ex.Metrics, res.Metrics)
	}
	e.Shape = plan.Shape(res.Plan)
	e.Trace = traceSkeleton(ex.Trace, 0, nil)
	if !hasShape(e.Trace, q.shape) {
		tb.Errorf("%s: plan lost its shape %v:\n%s", name, q.shape, ex.Trace)
	}
	if q.grant > 0 && e.Metrics.DataWrite <= 2*q.grant {
		tb.Errorf("%s: wrote %d bytes to temp under a %d-byte grant, want more than twice the grant", name, e.Metrics.DataWrite, q.grant)
	}
	return e
}

// hasShape reports whether the skeleton's operator names contain want
// as a subsequence.
func hasShape(ops []spineOp, want []string) bool {
	for _, op := range ops {
		if len(want) > 0 && op.Name == want[0] {
			want = want[1:]
		}
	}
	return len(want) == 0
}

// maskTime returns e without per-operator times. A morsel-driven
// operator's time is read off its worker's forked tracker and the
// fused parallel probe leaves the scan's boundary charge to the join
// node, so per-node time is only comparable at one worker count; the
// golden pins it at Parallelism 1, and every sum over nodes (Metrics)
// at both.
func maskTime(e spineEntry) spineEntry {
	ops := make([]spineOp, len(e.Trace))
	for i, op := range e.Trace {
		op.TimeNS = 0
		ops[i] = op
	}
	e.Trace = ops
	return e
}

func TestSpineGolden(t *testing.T) {
	// Force the worker pools to really run even on single-core CI
	// machines (the scheduler otherwise degrades every operator to the
	// inline serial path).
	exec.SetSchedulableCPUs(8)
	defer exec.SetSchedulableCPUs(0)

	var got []spineEntry
	for _, s := range spineSuites() {
		db := s.build(t)
		for _, q := range s.queries {
			e := runSpineQuery(t, s, db, q, ExecOptions{Parallelism: 1})
			par := runSpineQuery(t, s, db, q, ExecOptions{Parallelism: 8})
			if !reflect.DeepEqual(maskTime(e), maskTime(par)) {
				t.Errorf("%s: Parallelism 8 diverges from Parallelism 1\n  1: %+v\n  8: %+v", e.Name, e, par)
			}
			got = append(got, e)
		}
	}

	if *updateGolden {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(spineGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(spineGoldenPath)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	var want []spineEntry
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", spineGoldenPath, err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d queries ran, golden has %d (regenerate with -update and review the diff)", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s diverges from golden\n  got:  %+v\n  want: %+v", want[i].Name, got[i], want[i])
		}
	}
}
