// Kernel selectivity sweep: encoding-aware predicate pushdown against
// the decode-then-filter baseline at selectivities 0.001/0.01/0.1/1.0,
// over run-length-encoded integers and dictionary-encoded strings. Both
// sides return materialized rows (scanWithPreds and naiveFiltered from
// kernels_test.go, whose tests pin that they select the same row set),
// so compare kernel and naive ns/op per selectivity.
package colstore

import (
	"fmt"
	"math/rand"
	"testing"

	"hybriddb/internal/storage"
	"hybriddb/internal/value"
)

const kernelBenchRows = 262_144

type kernelBenchCase struct {
	sel  float64 // target selectivity, names the sub-benchmark
	pred Pred    // on column 1
}

// kernelBenchIndex builds a two-column index (k BIGINT unique, plus the
// filter column) in one of two encoding families:
//
//   - "rle": a sorted 1000-distinct BIGINT column; the greedy group sort
//     keeps it run-length encoded, so the kernel's O(runs) accept/skip
//     walk is what is being measured.
//   - "dict": a random 1000-distinct VARCHAR column with the group sort
//     disabled, so dictionary codes stay bit-packed and the kernel
//     compares codes without materializing strings.
func kernelBenchIndex(family string) (*Index, []kernelBenchCase) {
	cfg := Config{Primary: true, RowGroupSize: 65536}
	rows := make([]value.Row, kernelBenchRows)
	var lit func(i int) value.Value
	if family == "rle" {
		cfg.Schema = value.NewSchema(
			value.Column{Name: "k", Kind: value.KindInt},
			value.Column{Name: "g", Kind: value.KindInt},
		)
		for i := range rows {
			rows[i] = value.Row{value.NewInt(int64(i)), value.NewInt(int64(i) * 1000 / kernelBenchRows)}
		}
		lit = func(i int) value.Value { return value.NewInt(int64(i)) }
	} else {
		cfg.Schema = value.NewSchema(
			value.Column{Name: "k", Kind: value.KindInt},
			value.Column{Name: "d", Kind: value.KindString},
		)
		cfg.NoGroupSort = true
		lit = func(i int) value.Value { return value.NewString(fmt.Sprintf("s%03d", i)) }
		rng := rand.New(rand.NewSource(23))
		for i := range rows {
			rows[i] = value.Row{value.NewInt(int64(i)), lit(rng.Intn(1000))}
		}
	}
	return Build(storage.NewStore(0), cfg, rows, nil), []kernelBenchCase{
		{0.001, Pred{Col: 1, Op: PredEQ, Val: lit(500)}},
		{0.01, Pred{Col: 1, Op: PredLT, Val: lit(10)}},
		{0.1, Pred{Col: 1, Op: PredLT, Val: lit(100)}},
		{1.0, Pred{Col: 1, Op: PredGE, Val: lit(0)}},
	}
}

// kernelBenchSink keeps the scanned rows live so neither path is
// optimized away.
var kernelBenchSink []value.Row

func benchKernelFamily(b *testing.B, family string) {
	x, cases := kernelBenchIndex(family)
	for _, c := range cases {
		preds := []Pred{c.pred}
		b.Run(fmt.Sprintf("sel%g/kernel", c.sel), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rows, _, sc := scanWithPreds(x, ScanSpec{PruneCol: -1, Preds: preds})
				if sc.KernelBatches == 0 || len(rows) == 0 {
					b.Fatalf("%d kernel batches selected %d rows; benchmark is not measuring the kernels", sc.KernelBatches, len(rows))
				}
				kernelBenchSink = rows
			}
		})
		b.Run(fmt.Sprintf("sel%g/naive", c.sel), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				kernelBenchSink = naiveFiltered(x, nil, preds, []int{c.pred.Col})
			}
		})
	}
}

// BenchmarkKernelRLE measures the O(runs) accept/skip walk over
// run-length-encoded integers.
func BenchmarkKernelRLE(b *testing.B) { benchKernelFamily(b, "rle") }

// BenchmarkKernelDict measures dictionary-code comparison over
// bit-packed string codes.
func BenchmarkKernelDict(b *testing.B) { benchKernelFamily(b, "dict") }
