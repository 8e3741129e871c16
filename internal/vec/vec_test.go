package vec

import (
	"testing"

	"hybriddb/internal/value"
)

func TestVecAppendAndValue(t *testing.T) {
	v := NewVec(value.KindInt)
	v.Append(value.NewInt(5))
	v.Append(value.Null)
	v.Append(value.NewInt(7))
	if v.Len() != 3 {
		t.Fatalf("len = %d", v.Len())
	}
	if v.Value(0).Int() != 5 || !v.Value(1).IsNull() || v.Value(2).Int() != 7 {
		t.Errorf("values: %v %v %v", v.Value(0), v.Value(1), v.Value(2))
	}
	if v.IsNull(0) || !v.IsNull(1) {
		t.Error("null tracking broken")
	}
}

func TestVecKinds(t *testing.T) {
	f := NewVec(value.KindFloat)
	f.Append(value.NewFloat(1.5))
	if f.Value(0).Float() != 1.5 {
		t.Error("float")
	}
	s := NewVec(value.KindString)
	s.Append(value.NewString("x"))
	if s.Value(0).Str() != "x" {
		t.Error("string")
	}
	b := NewVec(value.KindBool)
	b.Append(value.NewBool(true))
	if !b.Value(0).Bool() {
		t.Error("bool")
	}
	d := NewVec(value.KindDate)
	d.Append(value.NewDate(100))
	if d.Value(0).Kind() != value.KindDate || d.Value(0).Int() != 100 {
		t.Error("date")
	}
}

func TestBatchSelection(t *testing.T) {
	b := NewBatch([]value.Kind{value.KindInt, value.KindString})
	for i := 0; i < 10; i++ {
		b.AppendRow(value.Row{value.NewInt(int64(i)), value.NewString("r")})
	}
	if b.Len() != 10 || b.Cap() != 10 {
		t.Fatalf("len=%d cap=%d", b.Len(), b.Cap())
	}
	b.Sel = []int{2, 5, 9}
	if b.Len() != 3 {
		t.Fatalf("selected len = %d", b.Len())
	}
	if b.Row(1)[0].Int() != 5 {
		t.Errorf("row(1) = %v", b.Row(1))
	}
	if b.LiveIndex(2) != 9 {
		t.Errorf("live index = %d", b.LiveIndex(2))
	}
	b.Reset()
	if b.Len() != 0 || b.Sel != nil {
		t.Error("reset incomplete")
	}
}

// TestReserveThenAppendFromGrowsOnce checks that a vector Reserve has
// sized takes its values by AppendFrom without growing again, NULLs
// included: the NULL slice is made once, with the payload's capacity,
// and a reset vector refills without allocating. Reserve sizes an empty
// vector exactly and at least doubles a full one.
func TestReserveThenAppendFromGrowsOnce(t *testing.T) {
	src := NewVec(value.KindInt)
	for i := 0; i < 8; i++ {
		if i%3 == 1 {
			src.Append(value.Null)
		} else {
			src.Append(value.NewInt(int64(i)))
		}
	}
	at := []int{0, 1, 2, 4, 4, 7, 3, 1, 6}
	v := &Vec{Kind: value.KindInt}
	v.Reserve(len(at))
	var nulls *bool
	for k, p := range at {
		v.AppendFrom(src, p)
		if nulls == nil && v.Null != nil {
			nulls = &v.Null[0]
		}
		if got, want := v.Value(k), src.Value(p); got != want {
			t.Fatalf("position %d: %v, want %v", k, got, want)
		}
	}
	if nulls == nil || &v.Null[0] != nulls || cap(v.Null) != len(at) || cap(v.I) != len(at) {
		t.Errorf("the gather grew the vector more than once: cap %d, NULL cap %d", cap(v.I), cap(v.Null))
	}
	if allocs := testing.AllocsPerRun(10, func() {
		v.Reset()
		v.Reserve(len(at))
		for _, p := range at {
			v.AppendFrom(src, p)
		}
	}); allocs != 0 {
		t.Errorf("refilling a reset vector allocated %v times", allocs)
	}

	v = &Vec{Kind: value.KindInt}
	v.Reserve(37)
	if cap(v.I) != 37 {
		t.Errorf("Reserve(37) on an empty vector: cap %d", cap(v.I))
	}
	v.I = append(v.I, make([]int64, 37)...)
	if v.Reserve(1); cap(v.I) < 74 {
		t.Errorf("Reserve on a full vector grew it to %d, want at least double", cap(v.I))
	}
}
