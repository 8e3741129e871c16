// Package stats provides the statistics machinery the optimizer and
// the tuning advisor rely on: one statistics object per table over a
// block sample, equi-depth histograms for cardinality estimation, and
// the GEE distinct-value estimator used for columnstore size
// estimation (Section 4.4 of the paper, following Chaudhuri et al.).
package stats

import (
	"math"
	"sort"
	"sync"

	"hybriddb/internal/value"
)

// TableStats is one table's statistics: a block sample of its rows and,
// built from it per column on first use, an equi-depth histogram with
// its GEE distinct count. The optimizer and the advisor's size
// estimators read it. It is safe for concurrent use; the sample must
// not be modified.
type TableStats struct {
	// Rows is the table's live row count when the sample was drawn.
	Rows int64
	// Fraction is the sampling fraction, len(Sample) / Rows.
	Fraction float64
	// Sample holds the sampled rows, shuffled.
	Sample []value.Row

	mu    sync.Mutex
	hists map[int]*Histogram
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
		vals := make([]value.Value, len(s.Sample))
		for i, r := range s.Sample {
			vals[i] = r[col]
		}
		h = BuildHistogram(vals, 64, s.Fraction)
		s.hists[col] = h
	}
	return h
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
	h := &Histogram{}
	nonNull := make([]value.Value, 0, len(vals))
	for _, v := range vals {
		if v.IsNull() {
			h.NullCount += scale
			continue
		}
		nonNull = append(nonNull, v)
	}
	h.Total = float64(len(vals)) * scale
	if len(nonNull) == 0 {
		return h
	}
	sort.Slice(nonNull, func(i, j int) bool { return value.Compare(nonNull[i], nonNull[j]) < 0 })
	h.Min, h.Max = nonNull[0], nonNull[len(nonNull)-1]

	h.Distinct = EstimateDistinctGEE(nonNull, fraction)

	per := (len(nonNull) + buckets - 1) / buckets
	if per == 0 {
		per = 1
	}
	for i := 0; i < len(nonNull); i += per {
		hi := i + per
		if hi > len(nonNull) {
			hi = len(nonNull)
		}
		// Extend the bucket to include duplicates of its upper bound so
		// bucket boundaries never split a value.
		for hi < len(nonNull) && value.Compare(nonNull[hi], nonNull[hi-1]) == 0 {
			hi++
		}
		h.Bounds = append(h.Bounds, nonNull[hi-1])
		h.Counts = append(h.Counts, float64(hi-i)*scale)
		i = hi - per // loop's i += per lands at hi
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

// EstimateDistinctGEE implements the GEE (Guaranteed-Error Estimator)
// of Charikar et al. as adapted by Chaudhuri et al. and used by the
// paper's columnstore size estimation: D ≈ sqrt(1/q) * f1 + Σ_{j≥2} fj,
// where q is the sampling fraction and fj the number of values
// appearing exactly j times in the sample. Values must be non-null.
func EstimateDistinctGEE(vals []value.Value, fraction float64) float64 {
	return gee(len(vals), fraction, func(buf []byte, i int) []byte {
		return value.EncodeKey(buf, vals[i])
	})
}

// EstimateDistinctRows applies GEE to multi-column combinations: the
// distinct count of the tuple formed by the given ordinals.
func EstimateDistinctRows(rows []value.Row, ordinals []int, fraction float64) float64 {
	return gee(len(rows), fraction, func(buf []byte, i int) []byte {
		for _, o := range ordinals {
			buf = value.EncodeKey(buf, rows[i][o])
		}
		return buf
	})
}

// gee is the GEE estimate over n sampled items, item i identified by
// the key that key appends to buf.
func gee(n int, fraction float64, key func(buf []byte, i int) []byte) float64 {
	if n == 0 {
		return 0
	}
	if fraction <= 0 || fraction > 1 {
		fraction = 1
	}
	freq := make(map[string]int, n)
	var buf []byte
	for i := 0; i < n; i++ {
		buf = key(buf[:0], i)
		freq[string(buf)]++
	}
	var f1, rest float64
	for _, c := range freq {
		if c == 1 {
			f1++
		} else {
			rest++
		}
	}
	d := math.Sqrt(1/fraction)*f1 + rest
	if d < 1 {
		d = 1
	}
	return d
}
