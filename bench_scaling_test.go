// The DOP sweep: the four representative parallel shapes — exchange-
// bound scan, partial-agg gather, partitioned-build hash join, parallel
// sort + TOP — at 1/2/4/8 workers. Each sub-benchmark reports the
// vclock cost model's PredictedSpeedup for its DOP as model_speedup;
// compare it with the ns/op ratio against DOP1 on a machine that has
// the cores (the executor clamps its pools to min(GOMAXPROCS, NumCPU),
// so above that the sweep measures scheduler noise). Measured below the
// model: the scheduler leaves speedup on the table; above: the model's
// serial fraction is pessimistic. Rows and virtual Metrics are
// identical at every DOP (TestSpineGolden, TestSerialParallelEquivalence).
package hybriddb

import (
	"fmt"
	"math/rand"
	"testing"

	"hybriddb/internal/value"
)

func benchScalingQuery(b *testing.B, db *DB, query string) {
	b.Helper()
	// Virtual metrics are the same at every DOP, so one untimed serial
	// run serves all predictions.
	res, err := db.Exec(query, ExecOptions{Parallelism: 1})
	if err != nil {
		b.Fatal(err)
	}
	model := db.Internal().Model()
	for _, dop := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("DOP%d", dop), func(b *testing.B) {
			opts := ExecOptions{Parallelism: dop}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.Exec(query, opts); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(model.PredictedSpeedup(res.Metrics, dop), "model_speedup")
		})
	}
}

// BenchmarkScalingScan sweeps the exchange-bound selective scan: the
// shape with the largest gather fraction, so the weakest scaling.
func BenchmarkScalingScan(b *testing.B) {
	benchScalingQuery(b, parallelBenchDB(b), "SELECT k, v FROM pb WHERE g < 8")
}

// BenchmarkScalingAgg sweeps per-worker partial aggregation with a
// 64-group merging gather — near-perfectly parallel work.
func BenchmarkScalingAgg(b *testing.B) {
	benchScalingQuery(b, parallelBenchDB(b),
		"SELECT g, count(*), sum(v), min(k), max(k) FROM pb GROUP BY g")
}

// parallelBenchDB builds a clustered-columnstore table with enough
// rowgroups (~25) that morsel dispatch has real work to split.
func parallelBenchDB(b *testing.B) *DB {
	b.Helper()
	db := Open(WithRowGroupSize(8192))
	if _, err := db.Exec("CREATE TABLE pb (k BIGINT, g BIGINT, v BIGINT)"); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	rows := make([]value.Row, 200_000)
	for i := range rows {
		rows[i] = value.Row{
			value.NewInt(int64(i)),
			value.NewInt(rng.Int63n(64)),
			value.NewInt(rng.Int63n(10_000)),
		}
	}
	db.Internal().Table("pb").BulkLoad(nil, rows)
	if _, err := db.Exec("CREATE CLUSTERED COLUMNSTORE INDEX cci ON pb (k)"); err != nil {
		b.Fatal(err)
	}
	return db
}

// batchBenchDB builds a TPC-H-subset pair of columnstore tables: a
// 20k-row orders dimension and a 120k-row lineitem fact, joined on the
// order key.
func batchBenchDB(b *testing.B) *DB {
	b.Helper()
	db := Open(WithRowGroupSize(8192))
	if _, err := db.Exec("CREATE TABLE borders (o_k BIGINT, o_g BIGINT, o_total DOUBLE)"); err != nil {
		b.Fatal(err)
	}
	if _, err := db.Exec("CREATE TABLE blineitem (l_ok BIGINT, l_q BIGINT, l_v DOUBLE)"); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(29))
	orders := make([]value.Row, 20_000)
	for i := range orders {
		orders[i] = value.Row{
			value.NewInt(int64(i)),
			value.NewInt(rng.Int63n(64)),
			value.NewFloat(float64(rng.Intn(100_000)) / 100),
		}
	}
	db.Internal().Table("borders").BulkLoad(nil, orders)
	lines := make([]value.Row, 120_000)
	for i := range lines {
		lines[i] = value.Row{
			value.NewInt(rng.Int63n(20_000)),
			value.NewInt(rng.Int63n(50)),
			value.NewFloat(float64(rng.Intn(10_000)) / 4),
		}
	}
	db.Internal().Table("blineitem").BulkLoad(nil, lines)
	for _, ddl := range []string{
		"CREATE CLUSTERED COLUMNSTORE INDEX cci_o ON borders (o_k)",
		"CREATE CLUSTERED COLUMNSTORE INDEX cci_l ON blineitem (l_ok)",
	} {
		if _, err := db.Exec(ddl); err != nil {
			b.Fatal(err)
		}
	}
	return db
}

// BenchmarkScalingJoin sweeps the partitioned hash-join build under a
// fused morsel-driven probe with aggregation.
func BenchmarkScalingJoin(b *testing.B) {
	benchScalingQuery(b, batchBenchDB(b),
		"SELECT o_g, count(*), sum(l_v) FROM borders JOIN blineitem ON l_ok = o_k WHERE o_g < 8 GROUP BY o_g")
}

// BenchmarkScalingJoinComposite sweeps the CH Q03/Q18 join shape: a
// two-column key whose first column alone has 40 build rows per value.
func BenchmarkScalingJoinComposite(b *testing.B) {
	benchScalingQuery(b, compositeBenchDB(b),
		"SELECT o_g, count(*), sum(l_v) FROM corders JOIN clines ON l_ok = o_k AND l_w = o_w GROUP BY o_g")
}

// compositeBenchDB builds batchBenchDB's sizes keyed (o_k, o_w): 20k
// orders, 500 values of o_k times 40 of o_w, and 120k lines.
func compositeBenchDB(b *testing.B) *DB {
	b.Helper()
	db := Open(WithRowGroupSize(8192))
	rng := rand.New(rand.NewSource(31))
	orders := make([]value.Row, 20_000)
	for i := range orders {
		orders[i] = value.Row{value.NewInt(int64(i / 40)), value.NewInt(int64(i % 40)), value.NewInt(rng.Int63n(64))}
	}
	lines := make([]value.Row, 120_000)
	for i := range lines {
		lines[i] = value.Row{value.NewInt(rng.Int63n(500)), value.NewInt(rng.Int63n(40)),
			value.NewFloat(float64(rng.Intn(10_000)) / 4)}
	}
	for _, t := range []struct {
		ddl, name string
		rows      []value.Row
	}{
		{"CREATE TABLE corders (o_k BIGINT, o_w BIGINT, o_g BIGINT)", "corders", orders},
		{"CREATE TABLE clines (l_ok BIGINT, l_w BIGINT, l_v DOUBLE)", "clines", lines},
	} {
		if _, err := db.Exec(t.ddl); err != nil {
			b.Fatal(err)
		}
		db.Internal().Table(t.name).BulkLoad(nil, t.rows)
		if _, err := db.Exec("CREATE CLUSTERED COLUMNSTORE INDEX cci_" + t.name + " ON " + t.name); err != nil {
			b.Fatal(err)
		}
	}
	return db
}

// BenchmarkScalingTopN sweeps the parallel sort under TOP N: each
// morsel keeps its first N rows in a bounded heap, and the serial
// loser-tree merge stops after N rows.
func BenchmarkScalingTopN(b *testing.B) {
	benchScalingQuery(b, batchBenchDB(b),
		"SELECT TOP 100 l_ok, l_v FROM blineitem WHERE l_q < 20 ORDER BY l_v DESC, l_ok")
}
