// Micro-benchmarks in process wall-clock: the paper's experiments at
// reduced "quick" scale (run cmd/hybridbench for the full-scale tables
// EXPERIMENTS.md quotes) and the core structures. End-to-end wall-clock
// numbers come from benchmark/ (sh benchmark/run.sh).
package hybriddb

import (
	"math/rand"
	"testing"

	"hybriddb/internal/btree"
	"hybriddb/internal/colstore"
	"hybriddb/internal/experiments"
	"hybriddb/internal/storage"
	"hybriddb/internal/value"
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
