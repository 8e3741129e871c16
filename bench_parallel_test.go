// Parallel-execution benchmarks: the same CSI scan and aggregation at
// worker counts 1/2/4/8, so the morsel-driven executor's wall-clock
// trajectory is tracked across commits. Virtual metrics are identical
// at every DOP by construction (see internal/exec/parallel.go); these
// measure the one thing that is allowed to change — real elapsed time.
//
// `make bench` runs them with BENCH_JSON set, which writes
// BENCH_parallel.json (ns/op per DOP plus speedup vs DOP 1). On a
// single-core machine speedups hover around 1×; the ≥2× target in
// ISSUE.md applies to 4+ core hardware.
package hybriddb

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"testing"

	"hybriddb/internal/value"
)

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

var parallelDOPs = []int{1, 2, 4, 8}

func benchParallelQuery(b *testing.B, name, query string, wantRows int) {
	db := parallelBenchDB(b)
	for _, dop := range parallelDOPs {
		b.Run(fmt.Sprintf("DOP%d", dop), func(b *testing.B) {
			opts := ExecOptions{Parallelism: dop}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := db.Exec(query, opts)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Rows) != wantRows {
					b.Fatalf("%d rows, want %d", len(res.Rows), wantRows)
				}
			}
			b.StopTimer()
			recordParallelBench(name, dop, b)
		})
	}
}

// BenchmarkParallelScan drains a selective multi-rowgroup scan through
// the exchange (gather of per-morsel row batches).
func BenchmarkParallelScan(b *testing.B) {
	benchParallelQuery(b, "scan", "SELECT k, v FROM pb WHERE g < 8", 25032)
}

// BenchmarkParallelAgg runs partial per-worker hash aggregation with a
// merging gather.
func BenchmarkParallelAgg(b *testing.B) {
	benchParallelQuery(b, "agg", "SELECT g, count(*), sum(v), min(k), max(k) FROM pb GROUP BY g", 64)
}

// --- BENCH_parallel.json writer (active only when BENCH_JSON is set) ---

type parallelBenchRecord struct {
	Bench   string  `json:"bench"`
	DOP     int     `json:"dop"`
	NsPerOp float64 `json:"ns_per_op"`
	Speedup float64 `json:"speedup_vs_dop1"`
}

var (
	benchMu      sync.Mutex
	benchRecords []parallelBenchRecord
)

// recordParallelBench always accumulates (not only when BENCH_JSON is
// set): the BENCH_GUARD regression check in TestMain needs the records
// even in benchsmoke runs that write no artifact.
func recordParallelBench(name string, dop int, b *testing.B) {
	benchMu.Lock()
	defer benchMu.Unlock()
	rec := parallelBenchRecord{
		Bench: name, DOP: dop,
		NsPerOp: float64(b.Elapsed().Nanoseconds()) / float64(b.N),
	}
	// The framework sizes b.N with trial runs; keep only the final
	// (largest-N, last-recorded) measurement per benchmark × DOP.
	for i := range benchRecords {
		if benchRecords[i].Bench == name && benchRecords[i].DOP == dop {
			benchRecords[i] = rec
			return
		}
	}
	benchRecords = append(benchRecords, rec)
}

// schedulableBenchCPUs mirrors exec.SchedulableCPUs: the worker pool
// never exceeds min(GOMAXPROCS, NumCPU), so that is the budget that
// decides which recorded DOPs actually ran in parallel.
func schedulableBenchCPUs() int {
	n := runtime.GOMAXPROCS(0)
	if c := runtime.NumCPU(); c < n {
		n = c
	}
	if n < 1 {
		n = 1
	}
	return n
}

// benchWarning reports the single hardware caveat that invalidates
// parallel speedup numbers: fewer schedulable CPUs than the largest
// worker count the artifact benchmarked. It is printed to stderr and
// recorded in the JSON so a reader of the committed numbers sees it
// too. Raising GOMAXPROCS above the physical core count (as `make
// bench-scaling` does) cannot clear the warning: the executor clamps
// its pools to NumCPU. An artifact that swept no worker counts (the
// wire load's clients are not executor workers) gets none.
func benchWarning(workerCounts []int) string {
	maxDOP := 0
	for _, w := range workerCounts {
		if w > maxDOP {
			maxDOP = w
		}
	}
	if p := schedulableBenchCPUs(); p < maxDOP {
		return fmt.Sprintf("min(GOMAXPROCS=%d, NumCPU=%d) is below the max benchmarked DOP %d; parallel speedups are scheduler noise on this machine",
			runtime.GOMAXPROCS(0), runtime.NumCPU(), maxDOP)
	}
	return ""
}

// benchEnv is the environment block shared by every BENCH_*.json
// artifact: the schedulable CPU budget, the real worker counts the
// suite exercised, and the scheduler-noise warning when the machine
// cannot actually run the largest of them. Its fields inline into each
// artifact's top level.
type benchEnv struct {
	GOMAXPROCS   int    `json:"gomaxprocs"`
	NumCPU       int    `json:"num_cpu"`
	WorkerCounts []int  `json:"worker_counts,omitempty"`
	Warning      string `json:"warning,omitempty"`
}

func currentBenchEnv(workerCounts []int) benchEnv {
	return benchEnv{
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		WorkerCounts: workerCounts,
		Warning:      benchWarning(workerCounts),
	}
}

// computeParallelSpeedups orders the DOP-sweep records and fills in
// speedup vs the same benchmark's DOP-1 baseline. It runs
// unconditionally after the benchmarks because both the JSON writers
// and the BENCH_GUARD regression check consume the results.
func computeParallelSpeedups() {
	benchMu.Lock()
	defer benchMu.Unlock()
	sort.SliceStable(benchRecords, func(i, j int) bool {
		if benchRecords[i].Bench != benchRecords[j].Bench {
			return benchRecords[i].Bench < benchRecords[j].Bench
		}
		return benchRecords[i].DOP < benchRecords[j].DOP
	})
	base := map[string]float64{}
	for _, r := range benchRecords {
		if r.DOP == 1 {
			base[r.Bench] = r.NsPerOp
		}
	}
	for i := range benchRecords {
		if b := base[benchRecords[i].Bench]; b > 0 && benchRecords[i].NsPerOp > 0 {
			benchRecords[i].Speedup = b / benchRecords[i].NsPerOp
		}
	}
	sort.SliceStable(scalingRecords, func(i, j int) bool {
		if scalingRecords[i].Bench != scalingRecords[j].Bench {
			return scalingRecords[i].Bench < scalingRecords[j].Bench
		}
		return scalingRecords[i].DOP < scalingRecords[j].DOP
	})
	sbase := map[string]float64{}
	for _, r := range scalingRecords {
		if r.DOP == 1 {
			sbase[r.Bench] = r.NsPerOp
		}
	}
	for i := range scalingRecords {
		if b := sbase[scalingRecords[i].Bench]; b > 0 && scalingRecords[i].NsPerOp > 0 {
			scalingRecords[i].Speedup = b / scalingRecords[i].NsPerOp
		}
	}
}

// benchGuardFailures applies the anti-regression gate: any recorded
// DOP the machine can actually schedule (DOP ≤ min(GOMAXPROCS,
// NumCPU)) must not be slower than serial — speedup_vs_dop1 ≥ 0.9,
// the 10% slack absorbing timer noise. DOPs above the schedulable
// budget are excluded: the executor clamps them to the same pool
// size, so their timing says nothing about parallel overhead. On a
// single-core CI box only the DOP-1 points (speedup exactly 1.0) are
// in scope, which keeps `make ci` deterministic there while real
// multi-core machines get the full check.
func benchGuardFailures() []string {
	benchMu.Lock()
	defer benchMu.Unlock()
	sched := schedulableBenchCPUs()
	var failures []string
	for _, r := range benchRecords {
		if r.DOP <= sched && r.Speedup > 0 && r.Speedup < 0.9 {
			failures = append(failures, fmt.Sprintf(
				"parallel/%s DOP %d: speedup_vs_dop1 %.3f < 0.9 with %d schedulable CPUs",
				r.Bench, r.DOP, r.Speedup, sched))
		}
	}
	for _, r := range scalingRecords {
		if r.DOP <= sched && r.Speedup > 0 && r.Speedup < 0.9 {
			failures = append(failures, fmt.Sprintf(
				"scaling/%s DOP %d: speedup_vs_dop1 %.3f < 0.9 with %d schedulable CPUs",
				r.Bench, r.DOP, r.Speedup, sched))
		}
	}
	return failures
}

func TestMain(m *testing.M) {
	code := m.Run()
	computeParallelSpeedups()
	computeHTAPRatios()
	if os.Getenv("BENCH_GUARD") != "" {
		failures := append(benchGuardFailures(), htapGuardFailures()...)
		failures = append(failures, wireGuardFailures()...)
		for _, f := range failures {
			fmt.Fprintf(os.Stderr, "BENCH_GUARD: %s\n", f)
			if code == 0 {
				code = 1
			}
		}
	}
	if path := os.Getenv("BENCH_JSON"); path != "" && len(benchRecords) > 0 {
		benchMu.Lock()
		if warn := benchWarning(parallelDOPs); warn != "" {
			fmt.Fprintf(os.Stderr, "warning: %s\n", warn)
		}
		out := struct {
			benchEnv
			Results []parallelBenchRecord `json:"results"`
		}{currentBenchEnv(parallelDOPs), benchRecords}
		benchMu.Unlock()
		data, err := json.MarshalIndent(out, "", "  ")
		if err == nil {
			err = os.WriteFile(path, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "BENCH_JSON: %v\n", err)
			if code == 0 {
				code = 1
			}
		}
	}
	if path := os.Getenv("BENCH_SCALING_JSON"); path != "" && len(scalingRecords) > 0 {
		benchMu.Lock()
		if warn := benchWarning(scalingDOPs); warn != "" {
			fmt.Fprintf(os.Stderr, "warning: %s\n", warn)
		}
		out := struct {
			benchEnv
			Results []scalingBenchRecord `json:"results"`
		}{currentBenchEnv(scalingDOPs), scalingRecords}
		benchMu.Unlock()
		data, err := json.MarshalIndent(out, "", "  ")
		if err == nil {
			err = os.WriteFile(path, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "BENCH_SCALING_JSON: %v\n", err)
			if code == 0 {
				code = 1
			}
		}
	}
	if path := os.Getenv("BENCH_HTAP_JSON"); path != "" && len(htapRecords) > 0 {
		benchMu.Lock()
		out := struct {
			benchEnv
			Results []htapBenchRecord `json:"results"`
		}{currentBenchEnv([]int{1}), htapRecords} // HTAP reads run serial
		benchMu.Unlock()
		data, err := json.MarshalIndent(out, "", "  ")
		if err == nil {
			err = os.WriteFile(path, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "BENCH_HTAP_JSON: %v\n", err)
			if code == 0 {
				code = 1
			}
		}
	}
	if path := os.Getenv("BENCH_WIRE_JSON"); path != "" && len(wireRecords) > 0 {
		benchMu.Lock()
		out := struct {
			benchEnv
			Results []wireBenchRecord `json:"results"`
		}{currentBenchEnv(nil), wireRecords} // clients, not executor workers
		benchMu.Unlock()
		data, err := json.MarshalIndent(out, "", "  ")
		if err == nil {
			err = os.WriteFile(path, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "BENCH_WIRE_JSON: %v\n", err)
			if code == 0 {
				code = 1
			}
		}
	}
	if path := os.Getenv("BENCH_KERNELS_JSON"); path != "" && len(kernelRecords) > 0 {
		benchMu.Lock()
		sort.SliceStable(kernelRecords, func(i, j int) bool {
			if kernelRecords[i].Family != kernelRecords[j].Family {
				return kernelRecords[i].Family < kernelRecords[j].Family
			}
			return kernelRecords[i].Selectivity < kernelRecords[j].Selectivity
		})
		for i := range kernelRecords {
			if kernelRecords[i].KernelNs > 0 {
				kernelRecords[i].Speedup = kernelRecords[i].NaiveNs / kernelRecords[i].KernelNs
			}
		}
		out := struct {
			benchEnv
			Rows    int                 `json:"rows"`
			Results []kernelBenchRecord `json:"results"`
		}{currentBenchEnv([]int{1}), kernelBenchRows, kernelRecords} // kernels run serial
		benchMu.Unlock()
		data, err := json.MarshalIndent(out, "", "  ")
		if err == nil {
			err = os.WriteFile(path, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "BENCH_KERNELS_JSON: %v\n", err)
			if code == 0 {
				code = 1
			}
		}
	}
	os.Exit(code)
}
