// Package workload generates the paper's benchmark datasets and query
// sets at laptop scale: the Section 3 micro-benchmarks (uniform
// integer tables + Q1–Q5), a TPC-H subset, a TPC-DS-style star schema
// with a generated 97-query analytic workload, the CH benchmark
// (TPC-C schema and transactions plus 22 H-like analytic queries), and
// seeded synthetic stand-ins for the five confidential customer
// workloads matching Table 2's published aggregate statistics.
package workload

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"

	"hybriddb/internal/engine"
	"hybriddb/internal/value"
	"hybriddb/internal/vclock"
)

// MicroConfig sizes the Section 3 micro-benchmark data.
type MicroConfig struct {
	Rows         int // rows in the single/two-column tables
	Cols         int // number of integer columns
	RowGroupSize int
	Sorted       bool  // pre-sort on col1 before load (Figure 2's "CSI sorted")
	Seed         int64 // data seed
	MaxValue     int64 // column values uniform in [0, MaxValue)
}

// DefaultMicro returns the micro-benchmark defaults: a scaled stand-in
// for the paper's 10 GB single-column table of uniform 32-bit ints.
func DefaultMicro() MicroConfig {
	return MicroConfig{
		Rows:         2_000_000,
		Cols:         1,
		RowGroupSize: 1 << 12,
		Seed:         42,
		MaxValue:     1 << 31,
	}
}

// BuildMicro creates table "t" with the given shape in a fresh
// database using the supplied cost model.
func BuildMicro(model *vclock.Model, cfg MicroConfig) *engine.Database {
	db := engine.New(model, 0)
	cols := make([]value.Column, cfg.Cols)
	for i := range cols {
		cols[i] = value.Column{Name: fmt.Sprintf("col%d", i+1), Kind: value.KindInt}
	}
	schema := value.NewSchema(cols...)
	t, err := db.CreateTable("t", schema, nil)
	if err != nil {
		panic(err)
	}
	t.SetRowGroupSize(cfg.RowGroupSize)
	rng := rand.New(rand.NewSource(cfg.Seed))
	rows := make([]value.Row, cfg.Rows)
	for i := range rows {
		r := make(value.Row, cfg.Cols)
		for c := range r {
			r[c] = value.NewInt(rng.Int63n(cfg.MaxValue))
		}
		rows[i] = r
	}
	if cfg.Sorted {
		slices.SortStableFunc(rows, func(a, b value.Row) int { return cmp.Compare(a[0].Int(), b[0].Int()) })
	}
	t.BulkLoad(nil, rows)
	return db
}

// Q1 is the data-skipping probe: SELECT sum(col1) FROM t WHERE col1 < x
// with the parameter set so the predicate qualifies the given fraction
// of a uniform [0, maxValue) column.
func Q1(selectivity float64, maxValue int64) string {
	cut := int64(selectivity * float64(maxValue))
	return fmt.Sprintf("SELECT sum(col1) FROM t WHERE col1 < %d", cut)
}

// Q2 is the explicit-sort-order probe: filter on col1, order by col2.
func Q2(selectivity float64, maxValue int64) string {
	cut := int64(selectivity * float64(maxValue))
	return fmt.Sprintf("SELECT col1, col2 FROM t WHERE col1 < %d ORDER BY col2", cut)
}

// Q3 is the group-by probe. BuildMicroGroups loads col1 with the given
// number of distinct values so the aggregate has that many groups.
func Q3() string {
	return "SELECT col1, sum(col2) FROM t GROUP BY col1"
}

// BuildMicroGroups creates the Figure 4 table: two integer columns,
// col1 with exactly groups distinct values, col2 uniform.
func BuildMicroGroups(model *vclock.Model, rows, groups int, rowGroupSize int, seed int64) *engine.Database {
	db := engine.New(model, 0)
	schema := value.NewSchema(
		value.Column{Name: "col1", Kind: value.KindInt},
		value.Column{Name: "col2", Kind: value.KindInt},
	)
	t, err := db.CreateTable("t", schema, nil)
	if err != nil {
		panic(err)
	}
	t.SetRowGroupSize(rowGroupSize)
	rng := rand.New(rand.NewSource(seed))
	data := make([]value.Row, rows)
	for i := range data {
		data[i] = value.Row{
			value.NewInt(rng.Int63n(int64(groups))),
			value.NewInt(rng.Int63n(1 << 31)),
		}
	}
	t.BulkLoad(nil, data)
	return db
}
