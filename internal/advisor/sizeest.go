// Package advisor implements the Database Engine Tuning Advisor
// extension the paper contributes (Section 4): per-query candidate
// selection over B+ tree and columnstore indexes, what-if costing
// through the optimizer against hypothetical index metadata, index
// merging, and a greedy workload-level search under a storage budget —
// plus the two columnstore size estimators of Section 4.4 (black-box
// sample compression and GEE-based run modelling).
package advisor

import (
	"cmp"
	"math"
	"slices"

	"hybriddb/internal/colstore"
	"hybriddb/internal/stats"
	"hybriddb/internal/storage"
	"hybriddb/internal/table"
	"hybriddb/internal/value"
)

// SizeMethod selects the columnstore size estimator.
type SizeMethod int

// Size estimation methods (Section 4.4).
const (
	// SizeBlackBox builds a columnstore on a block sample and scales
	// each column's compressed size by the inverse sampling fraction.
	SizeBlackBox SizeMethod = iota
	// SizeGEE models run-length encoding directly: columns are ordered
	// by GEE-estimated distinct count (mimicking the engine's greedy
	// sort) and each column's runs are bounded by the distinct count of
	// the sort-prefix combination ending at it.
	SizeGEE
)

func (m SizeMethod) String() string {
	if m == SizeBlackBox {
		return "black-box"
	}
	return "gee"
}

// EstimateCSISize estimates the per-column and total compressed size of
// a hypothetical columnstore over all of t's columns (plus the hidden
// UID), without building it on the full data: both methods read the
// table's statistics sample.
func EstimateCSISize(t *table.Table, method SizeMethod) (total int64, perCol []int64) {
	st := t.Stats()
	perCol = make([]int64, t.Schema.Len())
	if len(st.Sample) == 0 {
		return 0, perCol
	}
	// Each method measures the sample once per statistics object.
	copy(perCol, st.CSISizes(int(method), func(sample []value.Row) []int64 {
		if method == SizeGEE {
			return geeSizeEstimate(t, st)
		}
		// Compress the sample and scale linearly.
		idx := colstore.Build(storage.NewStore(0), colstore.Config{
			Schema:       t.Schema,
			Primary:      true,
			RowGroupSize: len(sample),
		}, sample, nil)
		sizes := make([]int64, len(perCol))
		for c := range sizes {
			sizes[c] = int64(float64(idx.ColumnBytes(c)) / st.Fraction)
		}
		return sizes
	}))
	for _, b := range perCol {
		total += b
	}
	// Hidden UID column: unique values, effectively incompressible.
	total += st.Rows * 8
	return total, perCol
}

// geeSizeEstimate models the engine's greedy sort + RLE/bit-pack
// choice using GEE distinct estimates: a column's NDV is its
// histogram's (distinct non-NULL values); a sort prefix's NDV counts
// distinct tuples of the prefix columns, NULL among their values.
func geeSizeEstimate(t *table.Table, st *stats.TableStats) []int64 {
	ncols := t.Schema.Len()
	n := float64(st.Rows)
	distinct := make([]float64, ncols)
	for c := range distinct {
		distinct[c] = math.Min(st.Histogram(c).Distinct, n)
	}
	// Greedy sort order: fewest distinct first (mirrors the engine's
	// strategy, Section 4.4: "picks the next column to sort by based on
	// the column with the fewest runs", approximated by distincts).
	order := make([]int, ncols)
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(distinct[a], distinct[b]) })

	perCol := make([]int64, ncols)
	// Runs of column c after sorting by the prefix ending at c are
	// bounded by the distinct count of the prefix combination.
	prefixDistinct := stats.EstimateDistinctPrefixes(st.Sample, order, st.Fraction)
	for i, c := range order {
		runs := math.Min(prefixDistinct[i], n)
		bits := math.Max(math.Ceil(math.Log2(distinct[c]+1)), 1)
		best := math.Min(runs*10, n*bits/8) // RLE runs or bit-packed values
		if t.Schema.Columns[c].Kind == value.KindString {
			// Dictionary: distinct strings at an estimated average width.
			best += distinct[c] * avgStringWidth(st.Sample, c)
		}
		perCol[c] = int64(best) + 64
	}
	return perCol
}

func avgStringWidth(rows []value.Row, c int) float64 {
	var total, n float64
	for _, r := range rows {
		if !r[c].IsNull() && r[c].Kind() == value.KindString {
			total += float64(len(r[c].Str()))
			n++
		}
	}
	if n == 0 {
		return 8
	}
	return total/n + 4
}

// EstimateBTreeSize estimates a secondary B+ tree's size.
func EstimateBTreeSize(t *table.Table, keys, include []int) int64 {
	width := 24 + 8 // entry overhead + uid tiebreak
	for _, k := range keys {
		width += colWidth(t, k)
	}
	for _, k := range include {
		width += colWidth(t, k)
	}
	width += 8 * len(t.ClusterKeys) // carried cluster key
	return int64(float64(t.RowCount()*int64(width)) / 0.9)
}

func colWidth(t *table.Table, c int) int {
	if w := t.Schema.Columns[c].Kind.FixedWidth(); w > 0 {
		return w
	}
	return 16
}
