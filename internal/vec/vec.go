// Package vec provides typed column vectors and row batches, the unit
// of data flow in batch-mode (vectorized) execution. Columnstore scans
// decode compressed segments into batches; batch-mode operators consume
// them without per-row interface overhead.
package vec

import "hybriddb/internal/value"

// BatchSize is the number of rows processed per batch in batch mode
// (SQL Server batch mode uses a similar granularity).
const BatchSize = 4096

// Vec is a typed column vector. Exactly one payload slice is populated
// according to Kind; Null marks NULL positions (nil = no NULLs).
type Vec struct {
	Kind value.Kind
	I    []int64   // KindInt, KindDate, KindBool (0/1)
	F    []float64 // KindFloat
	S    []string  // KindString
	Null []bool
}

// NewVec returns an empty vector of the given kind with capacity for a
// full batch.
func NewVec(kind value.Kind) *Vec {
	v := &Vec{Kind: kind}
	switch kind {
	case value.KindFloat:
		v.F = make([]float64, 0, BatchSize)
	case value.KindString:
		v.S = make([]string, 0, BatchSize)
	default:
		v.I = make([]int64, 0, BatchSize)
	}
	return v
}

// Reserve makes room for n more values (exactly n in an empty vector).
// When it has to grow the vector it at least doubles it, so a vector
// filled batch by batch copies each value O(1) times.
func (v *Vec) Reserve(n int) {
	switch v.Kind {
	case value.KindFloat:
		v.F = reserve(v.F, n)
	case value.KindString:
		v.S = reserve(v.S, n)
	default:
		v.I = reserve(v.I, n)
	}
	if v.Null != nil {
		v.Null = reserve(v.Null, n)
	}
}

func reserve[T any](s []T, n int) []T {
	if cap(s)-len(s) >= n {
		return s
	}
	out := make([]T, len(s), max(2*cap(s), len(s)+n))
	copy(out, s)
	return out
}

// Len returns the number of values in the vector.
func (v *Vec) Len() int {
	switch v.Kind {
	case value.KindFloat:
		return len(v.F)
	case value.KindString:
		return len(v.S)
	default:
		return len(v.I)
	}
}

// Reset truncates the vector to zero length, retaining capacity.
func (v *Vec) Reset() {
	v.I = v.I[:0]
	v.F = v.F[:0]
	v.S = v.S[:0]
	v.Null = v.Null[:0]
}

// Append adds a value, which must match the vector's kind or be NULL.
func (v *Vec) Append(val value.Value) {
	if val.IsNull() {
		v.appendZero()
		v.SetNull(v.Len() - 1)
		return
	}
	switch v.Kind {
	case value.KindFloat:
		v.F = append(v.F, val.Float())
	case value.KindString:
		v.S = append(v.S, val.Str())
	case value.KindBool:
		if val.Bool() {
			v.I = append(v.I, 1)
		} else {
			v.I = append(v.I, 0)
		}
	default:
		v.I = append(v.I, val.Int())
	}
	if v.Null != nil {
		v.Null = append(v.Null, false)
	}
}

func (v *Vec) appendZero() {
	switch v.Kind {
	case value.KindFloat:
		v.F = append(v.F, 0)
	case value.KindString:
		v.S = append(v.S, "")
	default:
		v.I = append(v.I, 0)
	}
}

// SetNull flags position i, already appended, as NULL. Values appended
// without a flag read as not NULL: the flags are brought up to the
// payload's length here, within the capacity Reserve made when there
// is room, else in a slice as large as the payload's capacity (only
// the kind's payload slice is ever non-empty).
func (v *Vec) SetNull(i int) {
	if n := v.Len(); len(v.Null) < n {
		if cap(v.Null) >= n {
			old := len(v.Null)
			v.Null = v.Null[:n]
			clear(v.Null[old:])
		} else {
			nulls := make([]bool, n, max(n, cap(v.I), cap(v.F), cap(v.S)))
			copy(nulls, v.Null)
			v.Null = nulls
		}
	}
	v.Null[i] = true
}

// IsNull reports whether position i is NULL.
func (v *Vec) IsNull(i int) bool {
	return v.Null != nil && i < len(v.Null) && v.Null[i]
}

// Value materializes position i as a value.Value.
func (v *Vec) Value(i int) value.Value {
	if v.IsNull(i) {
		return value.Null
	}
	switch v.Kind {
	case value.KindFloat:
		return value.NewFloat(v.F[i])
	case value.KindString:
		return value.NewString(v.S[i])
	case value.KindBool:
		return value.NewBool(v.I[i] != 0)
	case value.KindDate:
		return value.NewDate(v.I[i])
	default:
		return value.NewInt(v.I[i])
	}
}

// Batch is a set of column vectors of equal length plus an optional
// selection vector: when Sel is non-nil only the positions it lists are
// live. Filters shrink Sel instead of copying data.
type Batch struct {
	Cols []*Vec
	Sel  []int
	n    int
}

// NewBatch creates a batch with one vector per kind.
func NewBatch(kinds []value.Kind) *Batch {
	b := &Batch{Cols: make([]*Vec, len(kinds))}
	for i, k := range kinds {
		b.Cols[i] = NewVec(k)
	}
	return b
}

// Reset clears all vectors and the selection.
func (b *Batch) Reset() {
	for _, c := range b.Cols {
		c.Reset()
	}
	b.Sel = nil
	b.n = 0
}

// SetLen records the row count after vectors are populated directly.
func (b *Batch) SetLen(n int) { b.n = n }

// Len returns the number of live rows (respecting the selection).
func (b *Batch) Len() int {
	if b.Sel != nil {
		return len(b.Sel)
	}
	return b.n
}

// Cap returns the physical row count disregarding the selection.
func (b *Batch) Cap() int { return b.n }

// LiveIndex maps a live ordinal (0..Len-1) to a physical row index.
func (b *Batch) LiveIndex(i int) int {
	if b.Sel != nil {
		return b.Sel[i]
	}
	return i
}

// AppendRow appends one row across all vectors.
func (b *Batch) AppendRow(r value.Row) {
	for i, c := range b.Cols {
		c.Append(r[i])
	}
	b.n++
}

// Row materializes the live row at ordinal i.
func (b *Batch) Row(i int) value.Row {
	p := b.LiveIndex(i)
	out := make(value.Row, len(b.Cols))
	for c, v := range b.Cols {
		out[c] = v.Value(p)
	}
	return out
}
