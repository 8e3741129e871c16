// Micro-benchmarks in process wall-clock: the paper's experiments at
// reduced "quick" scale (run cmd/hybridbench for the full-scale tables
// EXPERIMENTS.md quotes) and the core structures. End-to-end wall-clock
// numbers come from benchmark/ (sh benchmark/run.sh).
package hybriddb

import (
	"context"
	"database/sql"
	"math/rand"
	"net"
	"testing"

	"hybriddb/client/hybridsql"
	"hybriddb/internal/btree"
	"hybriddb/internal/colstore"
	"hybriddb/internal/experiments"
	"hybriddb/internal/storage"
	"hybriddb/internal/value"
	"hybriddb/internal/wire"
)

// BenchmarkExperiments regenerates every registered experiment (each
// table and figure of the paper's evaluation) at quick scale.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range experiments.Registry() {
		b.Run(e.ID, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tables := e.Run(true)
				if len(tables) == 0 || len(tables[0].Rows) == 0 {
					b.Fatalf("experiment %s produced no rows", e.ID)
				}
			}
		})
	}
}

// --- core-structure micro-benchmarks ---

func BenchmarkBTreeInsert(b *testing.B) {
	st := storage.NewStore(0)
	t := btree.New(st)
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := value.Row{value.NewInt(rng.Int63())}
		t.Insert(nil, k, k)
	}
}

func BenchmarkBTreeSeek(b *testing.B) {
	st := storage.NewStore(0)
	t := btree.New(st)
	const n = 100_000
	items := make([]btree.Item, n)
	for i := range items {
		k := value.Row{value.NewInt(int64(i))}
		items[i] = btree.Item{Key: k, Row: k}
	}
	t.BulkLoad(nil, items)
	rng := rand.New(rand.NewSource(2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := t.Seek(nil, value.Row{value.NewInt(rng.Int63n(n))})
		if !it.Valid() {
			b.Fatal("seek failed")
		}
	}
}

func BenchmarkColumnstoreBuild(b *testing.B) {
	const n = 100_000
	sch := value.NewSchema(
		value.Column{Name: "a", Kind: value.KindInt},
		value.Column{Name: "b", Kind: value.KindInt},
	)
	rng := rand.New(rand.NewSource(3))
	rows := make([]value.Row, n)
	for i := range rows {
		rows[i] = value.Row{value.NewInt(rng.Int63n(1000)), value.NewInt(rng.Int63())}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		colstore.Build(storage.NewStore(0), colstore.Config{
			Schema: sch, Primary: true, RowGroupSize: 1 << 14,
		}, rows, nil)
	}
	b.SetBytes(int64(n * 16))
}

// BenchmarkBTreeBulkLoad loads 200 000 rows in random key order into an
// empty table clustered on a two-column key: the sort and bottom-up
// build every B+ tree bulk load and index build pays.
func BenchmarkBTreeBulkLoad(b *testing.B) {
	const n = 200_000
	rng := rand.New(rand.NewSource(5))
	rows := make([]value.Row, n)
	for i, p := range rng.Perm(n) {
		rows[i] = value.Row{value.NewInt(int64(p % 50)), value.NewInt(int64(p)),
			value.NewFloat(rng.Float64() * 100), value.NewString("payload")}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		db := Open()
		if _, err := db.Exec("CREATE TABLE bl (w BIGINT, o BIGINT, v DOUBLE, s VARCHAR(8), PRIMARY KEY (w, o))"); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		db.Internal().Table("bl").BulkLoad(nil, rows)
	}
}

func BenchmarkColumnstoreScan(b *testing.B) {
	const n = 200_000
	sch := value.NewSchema(value.Column{Name: "a", Kind: value.KindInt})
	rows := make([]value.Row, n)
	for i := range rows {
		rows[i] = value.Row{value.NewInt(int64(i))}
	}
	idx := colstore.Build(storage.NewStore(0), colstore.Config{
		Schema: sch, Primary: true, RowGroupSize: 1 << 14,
	}, rows, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := idx.NewScanner(nil, colstore.ScanSpec{PruneCol: -1})
		total := 0
		for sc.Next() {
			total += sc.Batch().Len()
		}
		if total != n {
			b.Fatalf("scanned %d", total)
		}
	}
	b.SetBytes(int64(n * 8))
}

func BenchmarkQueryBTreeSeek(b *testing.B) {
	db := benchDB(b, "btree")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec("SELECT sum(v) FROM bench WHERE k < 100"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQueryColumnstoreAgg(b *testing.B) {
	db := benchDB(b, "csi")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec("SELECT g, sum(v) FROM bench GROUP BY g"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireResult reads an 18 000-row result through the wire
// client over loopback: the server's RowBatch encode and writes, the
// client's reads and decode, both in this process's allocations.
func BenchmarkWireResult(b *testing.B) {
	db := benchDB(b, "btree")
	srv := wire.NewServer(db.Internal(), wire.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Shutdown(context.Background())
	cl, err := hybridsql.Connect(hybridsql.Config{Addr: ln.Addr().String(), User: "bench"})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	const want = 18_000
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, rows, err := cl.Exec("SELECT k, g, v FROM bench WHERE k < 18000")
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != want {
			b.Fatalf("%d rows, want %d", len(rows), want)
		}
	}
}

func BenchmarkAdvisorTune(b *testing.B) {
	db := benchDB(b, "btree")
	w := Workload{
		{SQL: "SELECT g, sum(v) FROM bench GROUP BY g"},
		{SQL: "SELECT v FROM bench WHERE k = 7"},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Tune(w, TuneOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchDB builds a 50k-row table with the given primary design.
func benchDB(b *testing.B, design string) *DB {
	b.Helper()
	db := Open(WithRowGroupSize(8192))
	if _, err := db.Exec("CREATE TABLE bench (k BIGINT, g BIGINT, v DOUBLE, PRIMARY KEY (k))"); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	rows := make([]value.Row, 50_000)
	for i := range rows {
		rows[i] = value.Row{
			value.NewInt(int64(i)),
			value.NewInt(rng.Int63n(32)),
			value.NewFloat(rng.Float64() * 100),
		}
	}
	db.Internal().Table("bench").BulkLoad(nil, rows)
	if design == "csi" {
		if _, err := db.Exec("CREATE NONCLUSTERED COLUMNSTORE INDEX csi ON bench"); err != nil {
			b.Fatal(err)
		}
	}
	return db
}

// BenchmarkWireResultSQL reads BenchmarkWireResult's 18 000-row result
// through database/sql, scanning each row into typed destinations: the
// driver's lazy frame reads and its decode of each value into
// database/sql's destination.
func BenchmarkWireResultSQL(b *testing.B) {
	pool := wireResultPool(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n, err := scanWireResult(pool); err != nil || n != wireResultRows {
			b.Fatalf("%d rows, err %v; want %d", n, err, wireResultRows)
		}
	}
}

// wireResultRows is the row count of wireResultQuery.
const (
	wireResultQuery = "SELECT k, g, v FROM bench WHERE k < 18000"
	wireResultRows  = 18_000
)

// wireResultPool serves benchDB's B+ tree table over loopback and
// returns a database/sql pool of one connection on it.
func wireResultPool(tb testing.TB) *sql.DB {
	db := Open(WithRowGroupSize(8192))
	if _, err := db.Exec("CREATE TABLE bench (k BIGINT, g BIGINT, v DOUBLE, PRIMARY KEY (k))"); err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	rows := make([]value.Row, 50_000)
	for i := range rows {
		rows[i] = value.Row{value.NewInt(int64(i)), value.NewInt(rng.Int63n(32)), value.NewFloat(rng.Float64() * 100)}
	}
	db.Internal().Table("bench").BulkLoad(nil, rows)
	srv := wire.NewServer(db.Internal(), wire.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	go srv.Serve(ln)
	pool, err := sql.Open("hybrid", "hybrid://bench@"+ln.Addr().String())
	if err != nil {
		tb.Fatal(err)
	}
	pool.SetMaxOpenConns(1)
	tb.Cleanup(func() {
		pool.Close()
		srv.Shutdown(context.Background())
	})
	return pool
}

// scanWireResult runs wireResultQuery on pool and scans every row.
func scanWireResult(pool *sql.DB) (int, error) {
	rows, err := pool.Query(wireResultQuery)
	if err != nil {
		return 0, err
	}
	defer rows.Close()
	n := 0
	for rows.Next() {
		var k, g int64
		var v float64
		if err := rows.Scan(&k, &g, &v); err != nil {
			return n, err
		}
		n++
	}
	return n, rows.Err()
}
