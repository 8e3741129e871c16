// Package exec mirrors hybriddb/internal/exec for the determinism
// fixtures: the analyzer restricts its rules to the exec, colstore,
// and optimizer package elements, where result rows, Result.Metrics,
// and trace trees are produced.
package exec

import (
	"sort"

	"hybriddb/internal/value"
	"hybriddb/internal/vec"
)

// Row mirrors a result row.
type Row []int64

// Result mirrors the order-sensitive sinks.
type Result struct {
	Rows     []Row
	Children []*Result
}

// finishUnsorted leaks map iteration order into returned rows.
func finishUnsorted(groups map[string]Row) []Row {
	out := make([]Row, 0, len(groups))
	for _, g := range groups { // want `rows accumulated in map iteration order escape this function without a sort`
		out = append(out, g)
	}
	return out
}

// finishSorted restores a total order before returning: clean.
func finishSorted(groups map[string]Row) []Row {
	out := make([]Row, 0, len(groups))
	for _, g := range groups {
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// fillDirect appends into a sink field inside the loop.
func fillDirect(res *Result, groups map[string]Row) {
	for _, g := range groups { // want `map iteration order flows into result rows`
		res.Rows = append(res.Rows, g)
	}
}

// fillDirectSorted sorts the sink afterwards: clean.
func fillDirectSorted(res *Result, groups map[string]Row) {
	for _, g := range groups {
		res.Rows = append(res.Rows, g)
	}
	sort.Slice(res.Rows, func(i, j int) bool { return res.Rows[i][0] < res.Rows[j][0] })
}

// assignAfterLoop routes the locally accumulated rows into a sink
// field after the loop.
func assignAfterLoop(res *Result, groups map[string]Row) {
	var rows []Row
	for _, g := range groups { // want `rows accumulated in map iteration order escape this function without a sort`
		rows = append(rows, g)
	}
	res.Rows = rows
}

// localOnly accumulates from a map but the slice never escapes: the
// order cannot be observed, so this is clean.
func localOnly(groups map[string]Row) int {
	var rows []Row
	for _, g := range groups {
		rows = append(rows, g)
	}
	return len(rows)
}

// sliceRange ranges over a slice, which iterates in index order:
// clean.
func sliceRange(in []Row) []Row {
	var out []Row
	for _, g := range in {
		out = append(out, g)
	}
	return out
}

// suppressed records a written reason for an accepted ordering leak.
func suppressed(groups map[string]Row) []Row {
	out := make([]Row, 0, len(groups))
	//lint:ignore determinism fixture: exercising the suppression syntax end to end
	for _, g := range groups {
		out = append(out, g)
	}
	return out
}

// part mirrors a partitioned build's per-partition state: row
// positions per key plus the stored rows. Both must be filled in
// build-input order.
type part struct {
	rows  map[int64][]int32
	store []Row
}

// repartitionUnsorted rebuilds a partition by ranging over another
// partition's map: per-key row order becomes map order, which is the
// order probes emit matches.
func repartitionUnsorted(dst *part, src map[int64][]int32) {
	for k, rows := range src { // want `map iteration order flows into result rows`
		dst.rows[k] = append(dst.rows[k], rows...)
	}
}

// storeFillUnsorted appends stored rows in map order.
func storeFillUnsorted(dst *part, src map[int64]Row) {
	for _, r := range src { // want `map iteration order flows into result rows`
		dst.store = append(dst.store, r)
	}
}

// repartitionSorted restores a total order afterwards: clean.
func repartitionSorted(dst *part, src map[int64][]int32) {
	for k, rows := range src {
		dst.rows[k] = append(dst.rows[k], rows...)
	}
	var keys []int64
	for k := range dst.rows {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		sort.Slice(dst.rows[k], func(i, j int) bool { return dst.rows[k][i] < dst.rows[k][j] })
	}
}

// vecFillUnsorted appends to a real column vector in map order: stored
// column order is the order probes emit matches.
func vecFillUnsorted(v *vec.Vec, src map[int64]value.Value) {
	for _, val := range src { // want `map iteration order flows into result rows`
		v.Append(val)
	}
}
