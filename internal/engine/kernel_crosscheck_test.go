package engine

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"hybriddb/internal/metrics"
	"hybriddb/internal/value"
	"hybriddb/internal/vclock"
)

// TestKernelNaiveEquivalence is the engine-level differential check for
// the encoding-aware predicate kernels: every query must return the
// same rows whether predicates are evaluated inside the compressed
// segments (default) or on decoded batches (NoKernelPushdown), at every
// parallelism level. Metrics are NOT compared — the kernel path charges
// a cheaper virtual-clock model by design; only answers must agree.
func TestKernelNaiveEquivalence(t *testing.T) {
	db := New(vclock.DefaultModel(vclock.DRAM), 0)
	db.DefaultRowGroupSize = 1024
	mustExec(t, db, "CREATE TABLE k (a BIGINT, b BIGINT, c DOUBLE, d VARCHAR(8), e DATE)")
	rng := rand.New(rand.NewSource(41))
	rows := make([]value.Row, 20000)
	for i := range rows {
		var dv value.Value = value.NewString(fmt.Sprintf("v%02d", rng.Intn(25)))
		if rng.Intn(50) == 0 {
			dv = value.Null
		}
		rows[i] = value.Row{
			value.NewInt(int64(i)),
			value.NewInt(rng.Int63n(40)),
			value.NewFloat(float64(rng.Intn(1000)) / 4),
			dv,
			value.NewDate(10000 + rng.Int63n(365)),
		}
	}
	db.Table("k").BulkLoad(nil, rows)
	mustExec(t, db, "CREATE CLUSTERED COLUMNSTORE INDEX cci ON k (a)")
	// A delta-store tail and deleted rows make the kernel, fallback, and
	// delta paths all cross the same queries.
	for i := 0; i < 80; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO k VALUES (%d, %d, %d.25, 'v%02d', '1997-03-15')",
			30000+i, i%40, i%13, i%25))
	}
	mustExec(t, db, "DELETE FROM k WHERE a BETWEEN 900 AND 1100")

	queries := []string{
		"SELECT a, b FROM k WHERE b = 7 ORDER BY a",
		"SELECT a, b FROM k WHERE b < 3 ORDER BY a",
		"SELECT count(*), sum(a) FROM k WHERE b >= 35",
		"SELECT a, d FROM k WHERE d = 'v03' ORDER BY a",
		"SELECT count(*) FROM k WHERE d > 'v20'",
		"SELECT a FROM k WHERE b = 11 AND d = 'v07' ORDER BY a",
		"SELECT b, count(*), sum(a) FROM k WHERE b <> 9 GROUP BY b",
		"SELECT count(*) FROM k WHERE e <= '1997-06-01'",
		"SELECT count(*), min(a), max(a) FROM k WHERE b = 1000",    // empty result
		"SELECT a, b, c FROM k WHERE b = 4 AND c < 100 ORDER BY a", // float stays post-scan
		"SELECT d, count(*) FROM k WHERE b BETWEEN 10 AND 12 GROUP BY d",
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

	k0 := metrics.Default().Value("hybriddb_colstore_kernel_batches_total")
	for _, q := range queries {
		for _, workers := range []int{1, 4} {
			kern := mustExec(t, db, q, ExecOptions{Parallelism: workers})
			naive := mustExec(t, db, q, ExecOptions{Parallelism: workers, NoKernelPushdown: true})
			if got, want := canon(kern), canon(naive); got != want {
				t.Errorf("%s: kernel and naive rows diverge at %d workers\n kernel: %s\n naive:  %s",
					q, workers, got, want)
			}
			if strings.Contains(q, "ORDER BY") {
				for i := range kern.Rows {
					for j := range kern.Rows[i] {
						if value.Compare(kern.Rows[i][j], naive.Rows[i][j]) != 0 {
							t.Fatalf("%s: ordered row %d diverges at %d workers", q, i, workers)
						}
					}
				}
			}
		}
	}
	if d := metrics.Default().Value("hybriddb_colstore_kernel_batches_total") - k0; d <= 0 {
		t.Fatalf("kernel batches delta = %v; predicate pushdown never fired", d)
	}

	// The ablation switch really disables pushdown: a naive run must not
	// advance the kernel counter.
	k1 := metrics.Default().Value("hybriddb_colstore_kernel_batches_total")
	mustExec(t, db, "SELECT count(*) FROM k WHERE b = 5", ExecOptions{NoKernelPushdown: true})
	if d := metrics.Default().Value("hybriddb_colstore_kernel_batches_total") - k1; d != 0 {
		t.Fatalf("kernel batches advanced by %v under NoKernelPushdown", d)
	}

	// EXPLAIN ANALYZE carries the kernel attributes on the scan node.
	tr := mustExec(t, db, "EXPLAIN ANALYZE SELECT count(*) FROM k WHERE b = 5", ExecOptions{Parallelism: 4})
	sn := tr.Trace.Find("Columnstore")
	if sn == nil {
		t.Fatalf("missing scan trace node:\n%s", tr.Trace)
	}
	if v, ok := sn.Attr("kernel_batches"); !ok || v <= 0 {
		t.Errorf("kernel_batches attr = %d (present=%v), want > 0", v, ok)
	}
	if v, ok := sn.Attr("sel_density"); !ok || v <= 0 || v >= 1000 {
		t.Errorf("sel_density attr = %d (present=%v), want in (0,1000) for a selective predicate", v, ok)
	}
}
