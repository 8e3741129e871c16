// Package stats provides the statistics machinery the optimizer and
// the tuning advisor rely on: one statistics object per table over a
// block sample, equi-depth histograms for cardinality estimation, and
// the GEE distinct-value estimator used for columnstore size
// estimation (Section 4.4 of the paper, following Chaudhuri et al.).
package stats

import (
	"math"
	"sync"

	"hybriddb/internal/value"
)

// TableStats is one table's statistics: a block sample of its rows and,
// built from it on first use, per column an equi-depth histogram with
// its GEE distinct count, and the columnstore size estimates. The
// optimizer and the advisor's size estimators read it. It is safe for
// concurrent use; the sample must not be modified.
type TableStats struct {
	// Rows is the table's live row count when the sample was drawn.
	Rows int64
	// Fraction is the sampling fraction, len(Sample) / Rows.
	Fraction float64
	// Sample holds the sampled rows, shuffled.
	Sample []value.Row

	mu       sync.Mutex
	hists    map[int]*Histogram
	sizeOnce [2]sync.Once // see CSISizes
	sizes    [2][]int64
}

// NewTableStats wraps a sample of a table of rows live rows.
func NewTableStats(rows int64, sample []value.Row) *TableStats {
	return &TableStats{Rows: rows, Fraction: float64(len(sample)) / max(float64(rows), 1),
		Sample: sample, hists: make(map[int]*Histogram)}
}

// Histogram returns column col's histogram, building it on first use.
// Its Distinct is the column's one NDV definition: the GEE estimate of
// its distinct non-NULL values.
func (s *TableStats) Histogram(col int) *Histogram {
	s.mu.Lock()
	defer s.mu.Unlock()
	h := s.hists[col]
	if h == nil {
		// A contiguous copy of the column: encoding straight from the
		// sample rows would wait on one cache miss per row.
		vals := make([]value.Value, len(s.Sample))
		for i, r := range s.Sample {
			vals[i] = r[col]
		}
		h = BuildHistogram(vals, 64, s.Fraction)
		s.hists[col] = h
	}
	return h
}

// CSISizes returns the per-column sizes the advisor's columnstore size
// estimator number method (0 or 1) measures on the sample, calling
// measure once per method. Callers must not modify the result.
func (s *TableStats) CSISizes(method int, measure func(sample []value.Row) []int64) []int64 {
	s.sizeOnce[method].Do(func() { s.sizes[method] = measure(s.Sample) })
	return s.sizes[method]
}

// Histogram is an equi-depth histogram over one column.
type Histogram struct {
	// Bounds are bucket upper bounds (inclusive), ascending.
	Bounds []value.Value
	// Counts are estimated rows per bucket (scaled to the population).
	Counts []float64
	// Total is the estimated population row count.
	Total float64
	// Distinct is the estimated number of distinct values.
	Distinct float64
	// Min and Max bound the column's values.
	Min, Max value.Value
	// NullCount estimates NULLs in the population.
	NullCount float64
}

// BuildHistogram builds an equi-depth histogram with at most buckets
// buckets from a sample of column values, scaling counts by 1/fraction.
func BuildHistogram(vals []value.Value, buckets int, fraction float64) *Histogram {
	if buckets <= 0 {
		buckets = 64
	}
	if fraction <= 0 || fraction > 1 {
		fraction = 1
	}
	scale := 1 / fraction
	n := len(vals)
	h := &Histogram{Total: float64(n) * scale}
	sorted := value.SortKeys(n, func(dst []byte, i int) []byte { return value.EncodeKey(dst, vals[i]) })
	at := func(i int) value.Value { return vals[sorted.Pos(i)] }
	first := 0
	for ; first < n && at(first).IsNull(); first++ {
		h.NullCount += scale
	}
	if first == n {
		return h
	}
	h.Min, h.Max = at(first), at(n-1)
	h.Distinct = gee(first, n, sorted.NewRun, fraction)

	per := (n - first + buckets - 1) / buckets
	for i := first; i < n; {
		hi := min(i+per, n)
		// Extend the bucket to include duplicates of its upper bound so
		// bucket boundaries never split a value.
		for hi < n && !sorted.NewRun(hi) {
			hi++
		}
		h.Bounds = append(h.Bounds, at(hi-1))
		h.Counts = append(h.Counts, float64(hi-i)*scale)
		i = hi
	}
	return h
}

// SelectivityRange estimates the fraction of rows in [lo, hi]
// (inclusive; a Null bound is open-ended).
func (h *Histogram) SelectivityRange(lo, hi value.Value) float64 {
	if h.Total == 0 || len(h.Bounds) == 0 {
		return 0
	}
	var rows float64
	prev := h.Min
	for i, ub := range h.Bounds {
		bucketLo, bucketHi := prev, ub
		prev = ub
		frac := overlapFraction(bucketLo, bucketHi, lo, hi)
		rows += h.Counts[i] * frac
	}
	sel := rows / h.Total
	if sel < 0 {
		sel = 0
	}
	if sel > 1 {
		sel = 1
	}
	return sel
}

// SelectivityEq estimates the fraction of rows equal to v (uniform
// spread across distinct values).
func (h *Histogram) SelectivityEq(v value.Value) float64 {
	if h.Total == 0 || h.Distinct <= 0 {
		return 0
	}
	if !h.Min.IsNull() && (value.Compare(v, h.Min) < 0 || value.Compare(v, h.Max) > 0) {
		return 0
	}
	return 1 / h.Distinct
}

// overlapFraction estimates what fraction of a numeric bucket
// [bLo, bHi] falls within the query range [qLo, qHi].
func overlapFraction(bLo, bHi, qLo, qHi value.Value) float64 {
	// Entirely outside?
	if !qLo.IsNull() && value.Compare(bHi, qLo) < 0 {
		return 0
	}
	if !qHi.IsNull() && value.Compare(bLo, qHi) > 0 {
		return 0
	}
	// Entirely inside?
	loIn := qLo.IsNull() || value.Compare(bLo, qLo) >= 0
	hiIn := qHi.IsNull() || value.Compare(bHi, qHi) <= 0
	if loIn && hiIn {
		return 1
	}
	// Partial overlap: interpolate numerically when possible.
	if bLo.Kind().Numeric() && bHi.Kind().Numeric() {
		lo, hi := bLo.Float(), bHi.Float()
		if hi <= lo {
			return 1
		}
		clo, chi := lo, hi
		if !qLo.IsNull() && qLo.Float() > clo {
			clo = qLo.Float()
		}
		if !qHi.IsNull() && qHi.Float() < chi {
			chi = qHi.Float()
		}
		if chi < clo {
			return 0
		}
		return (chi - clo) / (hi - lo)
	}
	return 0.5 // non-numeric partial overlap: coarse guess
}

// EstimateDistinctPrefixes applies GEE to multi-column combinations: its
// i-th result is the distinct count of the tuple ordinals[:i+1]. Rows
// equal on a prefix of ordinals are adjacent once sorted by all of them,
// so one sort yields every prefix's runs (Compare's equality is the sort
// keys' for columns of one kind).
func EstimateDistinctPrefixes(rows []value.Row, ordinals []int, fraction float64) []float64 {
	sorted := value.SortRows(rows, ordinals)
	agree := make([]int, len(rows)) // leading ordinals the i-th row shares with the one before
	for i := 1; i < len(rows); i++ {
		prev, cur := rows[sorted.Pos(i-1)], rows[sorted.Pos(i)]
		for agree[i] < len(ordinals) && value.Compare(prev[ordinals[agree[i]]], cur[ordinals[agree[i]]]) == 0 {
			agree[i]++
		}
	}
	out := make([]float64, len(ordinals))
	for p := range out {
		out[p] = gee(0, len(rows), func(i int) bool { return i == 0 || agree[i] <= p }, fraction)
	}
	return out
}

// gee implements the GEE (Guaranteed-Error Estimator) of Charikar et
// al. as adapted by Chaudhuri et al. and used by the paper's columnstore
// size estimation: D ≈ sqrt(1/q) * f1 + Σ_{j≥2} fj, where q is the
// sampling fraction and fj the number of runs of j equal values among
// sorted items from (a run's start) to n-1; newRun marks each start.
func gee(from, n int, newRun func(int) bool, fraction float64) float64 {
	if fraction <= 0 || fraction > 1 {
		fraction = 1
	}
	var f1, rest float64
	for i := from; i < n; i++ {
		switch {
		case !newRun(i):
		case i+1 == n || newRun(i+1):
			f1++
		default:
			rest++
		}
	}
	return max(math.Sqrt(1/fraction)*f1+rest, min(f1+rest, 1)) // 0 for no values, else at least 1
}
