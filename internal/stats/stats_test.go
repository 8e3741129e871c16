package stats

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"hybriddb/internal/value"
)

func intVals(n int, f func(i int) int64) []value.Value {
	out := make([]value.Value, n)
	for i := range out {
		out[i] = value.NewInt(f(i))
	}
	return out
}

func TestTableStats(t *testing.T) {
	sample := make([]value.Row, 1000)
	for i := range sample {
		sample[i] = value.Row{value.NewInt(int64(i)), value.NewInt(int64(i % 10))}
	}
	s := NewTableStats(10000, sample)
	if s.Rows != 10000 || s.Fraction != 0.1 {
		t.Fatalf("rows %d, fraction %v; want 10000, 0.1", s.Rows, s.Fraction)
	}
	// Concurrent readers (statements under the shared lock) get one
	// histogram per column.
	got := make([]*Histogram, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = s.Histogram(i % 2)
		}()
	}
	wg.Wait()
	h := s.Histogram(1)
	for i, g := range got {
		if g != s.Histogram(i%2) {
			t.Errorf("reader %d got another histogram of column %d", i, i%2)
		}
	}
	if h.Total != 10000 || h.Distinct != 10 || h.Max.Int() != 9 {
		t.Errorf("column 1: total %v, distinct %v, max %v; want 10000, 10, 9", h.Total, h.Distinct, h.Max)
	}
	if s.Histogram(0).Distinct <= 1000 {
		t.Errorf("column 0: distinct %v does not scale past the sample", s.Histogram(0).Distinct)
	}
	if e := NewTableStats(0, nil); e.Fraction != 0 || e.Histogram(0).Total != 0 {
		t.Errorf("empty table: fraction %v, total %v", e.Fraction, e.Histogram(0).Total)
	}
}

func TestHistogramUniform(t *testing.T) {
	vals := intVals(10000, func(i int) int64 { return int64(i) })
	h := BuildHistogram(vals, 64, 1.0)
	if h.Total != 10000 {
		t.Fatalf("total = %v", h.Total)
	}
	if h.Min.Int() != 0 || h.Max.Int() != 9999 {
		t.Fatalf("min/max = %v/%v", h.Min, h.Max)
	}
	// Range [0, 999] is 10%.
	got := h.SelectivityRange(value.NewInt(0), value.NewInt(999))
	if math.Abs(got-0.1) > 0.02 {
		t.Errorf("sel[0,999] = %v, want ~0.1", got)
	}
	// Full range.
	got = h.SelectivityRange(value.Null, value.Null)
	if math.Abs(got-1.0) > 0.01 {
		t.Errorf("sel(all) = %v", got)
	}
	// Out of range.
	got = h.SelectivityRange(value.NewInt(20000), value.NewInt(30000))
	if got != 0 {
		t.Errorf("sel(out of range) = %v", got)
	}
	// Open-ended below.
	got = h.SelectivityRange(value.Null, value.NewInt(4999))
	if math.Abs(got-0.5) > 0.02 {
		t.Errorf("sel(<=4999) = %v", got)
	}
}

func TestHistogramSkewed(t *testing.T) {
	// 90% of values are 0, the rest uniform in [1,1000].
	rng := rand.New(rand.NewSource(2))
	vals := intVals(10000, func(i int) int64 {
		if i < 9000 {
			return 0
		}
		return rng.Int63n(1000) + 1
	})
	h := BuildHistogram(vals, 32, 1.0)
	got := h.SelectivityRange(value.NewInt(0), value.NewInt(0))
	if got < 0.7 {
		t.Errorf("sel(=0 via range) = %v, want heavy", got)
	}
}

func TestHistogramScaling(t *testing.T) {
	vals := intVals(1000, func(i int) int64 { return int64(i) })
	h := BuildHistogram(vals, 16, 0.1) // sample is 10% of population
	if math.Abs(h.Total-10000) > 1 {
		t.Errorf("scaled total = %v", h.Total)
	}
}

func TestHistogramNullsAndEmpty(t *testing.T) {
	vals := []value.Value{value.Null, value.Null, value.NewInt(1)}
	h := BuildHistogram(vals, 4, 1.0)
	if h.NullCount != 2 {
		t.Errorf("nulls = %v", h.NullCount)
	}
	empty := BuildHistogram(nil, 4, 1.0)
	if empty.SelectivityRange(value.Null, value.Null) != 0 {
		t.Error("empty histogram selectivity")
	}
}

func TestSelectivityEq(t *testing.T) {
	vals := intVals(1000, func(i int) int64 { return int64(i % 25) })
	h := BuildHistogram(vals, 16, 1.0)
	got := h.SelectivityEq(value.NewInt(7))
	if math.Abs(got-1.0/25) > 0.01 {
		t.Errorf("eq sel = %v, want 0.04", got)
	}
	if h.SelectivityEq(value.NewInt(500)) != 0 {
		t.Error("eq sel out of range should be 0")
	}
}

func TestGEEFullSample(t *testing.T) {
	// With fraction 1 GEE is exact-ish: f1*1 + rest = distinct.
	vals := intVals(1000, func(i int) int64 { return int64(i % 25) })
	got := BuildHistogram(vals, 64, 1.0).Distinct
	if got != 25 {
		t.Errorf("GEE full = %v, want 25", got)
	}
}

func TestGEELowCardinalityNotOverestimated(t *testing.T) {
	// The paper's motivating case (n_nationkey): 25 distinct values.
	// A naive linear scale-up of sample distincts would give 25/q;
	// GEE keeps repeated values unscaled.
	rng := rand.New(rand.NewSource(3))
	sample := intVals(1000, func(i int) int64 { return rng.Int63n(25) })
	got := BuildHistogram(sample, 64, 0.01).Distinct
	if got > 50 {
		t.Errorf("GEE low-card = %v, want ~25 (naive scaling gives 2500)", got)
	}
}

func TestGEEHighCardinalityScales(t *testing.T) {
	// All-unique sample: GEE = sqrt(1/q) * n.
	vals := intVals(1000, func(i int) int64 { return int64(i) })
	got := BuildHistogram(vals, 64, 0.01).Distinct
	want := math.Sqrt(100) * 1000
	if math.Abs(got-want) > 1 {
		t.Errorf("GEE high-card = %v, want %v", got, want)
	}
}

func TestEstimateDistinctRows(t *testing.T) {
	rows := make([]value.Row, 1000)
	for i := range rows {
		rows[i] = value.Row{value.NewInt(int64(i % 10)), value.NewInt(int64(i % 4))}
	}
	// Distinct (a) = 10, distinct (a,b) = lcm(10,4)=20, distinct (b) = 4.
	if got := EstimateDistinctPrefixes(rows, []int{0, 1}, 1.0); !slices.Equal(got, []float64{10, 20}) {
		t.Errorf("distinct(a), (a,b) = %v", got)
	}
	if got := EstimateDistinctPrefixes(rows, []int{1, 0}, 1.0); !slices.Equal(got, []float64{4, 20}) {
		t.Errorf("distinct(b), (b,a) = %v", got)
	}
	if got := EstimateDistinctPrefixes(nil, []int{0}, 1.0); !slices.Equal(got, []float64{0}) {
		t.Errorf("distinct(empty) = %v", got)
	}
}
