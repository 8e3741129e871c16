package vec

import "hybriddb/internal/value"

// AppendFrom appends position i of src to v without boxing the value
// into a value.Value. Both vectors must carry the same kind (batch
// operators copy between vectors created from the same schema kind).
func (v *Vec) AppendFrom(src *Vec, i int) {
	if src.IsNull(i) {
		v.appendZero()
		v.SetNull(v.Len() - 1)
		return
	}
	switch v.Kind {
	case value.KindFloat:
		v.F = append(v.F, src.F[i])
	case value.KindString:
		v.S = append(v.S, src.S[i])
	default:
		v.I = append(v.I, src.I[i])
	}
	if v.Null != nil {
		v.Null = append(v.Null, false)
	}
}

// ValueWidth returns the in-memory width in bytes of position i,
// matching value.Value.Width on the materialized value: 8 for
// int/float/date, 1 for bool, len(s) for strings, 1 for NULL. Batch
// operators use it to charge the same per-row memory the row-mode
// operators charge for materialized composite rows.
func (v *Vec) ValueWidth(i int) int {
	if v.IsNull(i) {
		return 1
	}
	switch v.Kind {
	case value.KindString:
		return len(v.S[i])
	case value.KindBool:
		return 1
	default:
		return 8
	}
}
