// Scaling rig: DOP sweeps over the four representative parallel
// shapes — exchange-bound scan, partial-agg gather, partitioned-build
// hash join, and parallel sort + TOP — cross-checked against the
// vclock cost model's own scaling prediction.
//
// `make bench-scaling` runs these with GOMAXPROCS raised to at least 8
// and BENCH_SCALING_JSON set, which writes BENCH_scaling.json: ns/op
// per query × DOP, measured speedup vs DOP 1, and the model's
// PredictedSpeedup from the same query's virtual Metrics. Divergence
// between the two columns is signal: measured ≪ model means the real
// scheduler is leaving speedup on the table (or the machine has fewer
// cores than GOMAXPROCS claims — see the embedded warning); measured ≫
// model means the model's serial fraction is pessimistic. Virtual
// metrics themselves are bit-identical at every DOP by construction,
// so each sweep captures them once, untimed, before the timed runs.
package hybriddb

import (
	"fmt"
	"math/rand"
	"testing"

	"hybriddb/internal/value"
)

var scalingDOPs = []int{1, 2, 4, 8}

// scalingBenchRecord is one point of BENCH_scaling.json: a query at a
// worker count, its measured wall-clock scaling, and the 40-core
// model's prediction for the same DOP derived from the query's
// CPUSerial/CPUParallel split.
type scalingBenchRecord struct {
	Bench   string  `json:"bench"`
	DOP     int     `json:"dop"`
	NsPerOp float64 `json:"ns_per_op"`
	Speedup float64 `json:"speedup_vs_dop1"`
	// ModelSpeedup is vclock's PredictedSpeedup(metrics, dop): the
	// Amdahl bound the virtual cost model expects at this DOP, with
	// parallel startup charged. Compare against Speedup to validate
	// the model on real hardware.
	ModelSpeedup float64 `json:"model_speedup"`
}

var scalingRecords []scalingBenchRecord

func recordScalingBench(name string, dop int, modelSpeedup float64, b *testing.B) {
	benchMu.Lock()
	defer benchMu.Unlock()
	rec := scalingBenchRecord{
		Bench: name, DOP: dop,
		NsPerOp:      float64(b.Elapsed().Nanoseconds()) / float64(b.N),
		ModelSpeedup: modelSpeedup,
	}
	// Keep only the final (largest-N) measurement per benchmark × DOP,
	// as recordParallelBench does.
	for i := range scalingRecords {
		if scalingRecords[i].Bench == name && scalingRecords[i].DOP == dop {
			scalingRecords[i] = rec
			return
		}
	}
	scalingRecords = append(scalingRecords, rec)
}

func benchScalingQuery(b *testing.B, db *DB, name, query string) {
	b.Helper()
	// One untimed execution captures the virtual metrics; they are
	// identical at every DOP, so the DOP-1 run serves all predictions.
	res, err := db.Exec(query, ExecOptions{Parallelism: 1})
	if err != nil {
		b.Fatal(err)
	}
	model := db.Internal().Model()
	for _, dop := range scalingDOPs {
		predicted := model.PredictedSpeedup(res.Metrics, dop)
		b.Run(fmt.Sprintf("DOP%d", dop), func(b *testing.B) {
			opts := ExecOptions{Parallelism: dop}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.Exec(query, opts); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			recordScalingBench(name, dop, predicted, b)
		})
	}
}

// BenchmarkScalingScan sweeps the exchange-bound selective scan: the
// shape with the largest gather fraction, so the weakest scaling.
func BenchmarkScalingScan(b *testing.B) {
	benchScalingQuery(b, parallelBenchDB(b), "scan", "SELECT k, v FROM pb WHERE g < 8")
}

// BenchmarkScalingAgg sweeps per-worker partial aggregation with a
// 64-group merging gather — near-perfectly parallel work.
func BenchmarkScalingAgg(b *testing.B) {
	benchScalingQuery(b, parallelBenchDB(b), "agg",
		"SELECT g, count(*), sum(v), min(k), max(k) FROM pb GROUP BY g")
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
	benchScalingQuery(b, batchBenchDB(b), "join",
		"SELECT o_g, count(*), sum(l_v) FROM borders JOIN blineitem ON l_ok = o_k WHERE o_g < 8 GROUP BY o_g")
}

// BenchmarkScalingTopN sweeps the parallel sort: per-morsel local
// sorts with the serial loser-tree merge capped at TOP N.
func BenchmarkScalingTopN(b *testing.B) {
	benchScalingQuery(b, batchBenchDB(b), "topn",
		"SELECT TOP 100 l_ok, l_v FROM blineitem WHERE l_q < 20 ORDER BY l_v DESC, l_ok")
}
