package value

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull: "NULL", KindInt: "BIGINT", KindFloat: "DOUBLE",
		KindString: "VARCHAR", KindBool: "BOOLEAN", KindDate: "DATE",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("%v.String() = %q, want %q", uint8(k), got, want)
		}
	}
}

func TestValueAccessors(t *testing.T) {
	if got := NewInt(42).Int(); got != 42 {
		t.Errorf("Int = %d", got)
	}
	if got := NewFloat(2.5).Float(); got != 2.5 {
		t.Errorf("Float = %v", got)
	}
	if got := NewString("abc").Str(); got != "abc" {
		t.Errorf("Str = %q", got)
	}
	if !NewBool(true).Bool() || NewBool(false).Bool() {
		t.Error("Bool accessor broken")
	}
	if !Null.IsNull() || NewInt(0).IsNull() {
		t.Error("IsNull broken")
	}
	if got := NewInt(7).Float(); got != 7 {
		t.Errorf("int widened to float = %v", got)
	}
}

func TestValueString(t *testing.T) {
	d := DateFromTime(time.Date(1998, 9, 2, 12, 0, 0, 0, time.UTC))
	if got := d.String(); got != "1998-09-02" {
		t.Errorf("date string = %q", got)
	}
	if got := Null.String(); got != "NULL" {
		t.Errorf("null string = %q", got)
	}
	if got := NewBool(true).String(); got != "true" {
		t.Errorf("bool string = %q", got)
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewInt(2), 1},
		{NewFloat(1.5), NewInt(2), -1},
		{NewInt(2), NewFloat(1.5), 1},
		{NewDate(10), NewInt(10), 0},
		{Null, NewInt(-100), -1},
		{NewInt(-100), Null, 1},
		{Null, Null, 0},
		{NewString("a"), NewString("b"), -1},
		{NewString("b"), NewString("b"), 0},
		{NewBool(false), NewBool(true), -1},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestArithmetic(t *testing.T) {
	if got := Add(NewInt(2), NewInt(3)); got.Int() != 5 {
		t.Errorf("Add int = %v", got)
	}
	if got := Add(NewInt(2), NewFloat(0.5)); got.Float() != 2.5 {
		t.Errorf("Add widen = %v", got)
	}
	if got := Sub(NewInt(2), NewInt(3)); got.Int() != -1 {
		t.Errorf("Sub = %v", got)
	}
	if got := Mul(NewFloat(2), NewFloat(3)); got.Float() != 6 {
		t.Errorf("Mul = %v", got)
	}
	if got := Div(NewInt(6), NewInt(4)); got.Float() != 1.5 {
		t.Errorf("Div = %v", got)
	}
	if got := Div(NewInt(6), NewInt(0)); !got.IsNull() {
		t.Errorf("Div by zero = %v", got)
	}
	if got := Add(Null, NewInt(1)); !got.IsNull() {
		t.Errorf("Add null = %v", got)
	}
}

func TestSchema(t *testing.T) {
	s := NewSchema(Column{"a", KindInt}, Column{"b", KindString})
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.Ordinal("b") != 1 || s.Ordinal("missing") != -1 {
		t.Error("Ordinal broken")
	}
	p := s.Project([]int{1})
	if p.Len() != 1 || p.Columns[0].Name != "b" {
		t.Error("Project broken")
	}
	if got := s.RowWidth(); got != 8+16 {
		t.Errorf("RowWidth = %d", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("duplicate column did not panic")
		}
	}()
	NewSchema(Column{"x", KindInt}, Column{"x", KindInt})
}

func TestRowHelpers(t *testing.T) {
	r := Row{NewInt(1), NewString("xy"), Null}
	c := r.Clone()
	c[0] = NewInt(9)
	if r[0].Int() != 1 {
		t.Error("Clone aliases source")
	}
	p := r.Project([]int{2, 0})
	if !p[0].IsNull() || p[1].Int() != 1 {
		t.Error("Project broken")
	}
	if got := r.Width(); got != 8+2+1 {
		t.Errorf("Width = %d", got)
	}
}

func TestCompareRows(t *testing.T) {
	a := Row{NewInt(1), NewString("b")}
	b := Row{NewInt(1), NewString("c")}
	if CompareRows(a, b, nil) >= 0 {
		t.Error("full compare broken")
	}
	if CompareRows(a, b, []int{0}) != 0 {
		t.Error("ordinal compare broken")
	}
	if CompareRows(b, a, []int{1}) <= 0 {
		t.Error("ordinal compare direction broken")
	}
}

// TestEncodeKeyOrderProperty verifies the core invariant: byte order of
// encoded keys matches value order, for random scalar pairs of every kind.
func TestEncodeKeyOrderProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	randVal := func() Value {
		switch rng.Intn(6) {
		case 0:
			return Null
		case 1:
			return NewInt(rng.Int63n(2001) - 1000)
		case 2:
			return NewFloat((rng.Float64() - 0.5) * 1e6)
		case 3:
			b := make([]byte, rng.Intn(6))
			for i := range b {
				b[i] = byte(rng.Intn(4)) // include 0x00 bytes
			}
			return NewString(string(b))
		case 4:
			return NewBool(rng.Intn(2) == 0)
		default:
			return NewDate(rng.Int63n(20000))
		}
	}
	sign := func(x int) int {
		switch {
		case x < 0:
			return -1
		case x > 0:
			return 1
		}
		return 0
	}
	for i := 0; i < 20000; i++ {
		a, b := randVal(), randVal()
		// Only same-kind or numeric-cross comparisons are key-order
		// compatible; composite keys in the engine are always homogeneous
		// per position.
		if a.Kind() != b.Kind() && !(a.Kind().Numeric() && b.Kind().Numeric()) {
			continue
		}
		// Numeric cross-kind encodings differ (int vs float bits); the
		// engine never mixes them within one key position either.
		if a.Kind() != b.Kind() && (a.Kind() == KindFloat || b.Kind() == KindFloat) {
			continue
		}
		ka := EncodeKey(nil, a)
		kb := EncodeKey(nil, b)
		if got, want := sign(bytes.Compare(ka, kb)), sign(Compare(a, b)); got != want {
			t.Fatalf("order mismatch for %v vs %v: bytes %d, values %d", a, b, got, want)
		}
	}
}

func TestEncodeKeyCompositeOrder(t *testing.T) {
	rows := []Row{
		{NewInt(1), NewString("z")},
		{NewInt(2), NewString("a")},
		{NewInt(1), NewString("a")},
		{Null, NewString("m")},
		{NewInt(1), Null},
	}
	enc := make([][]byte, len(rows))
	for i, r := range rows {
		enc[i] = EncodeKey(nil, r...)
	}
	idx := []int{0, 1, 2, 3, 4}
	sort.Slice(idx, func(i, j int) bool {
		return bytes.Compare(enc[idx[i]], enc[idx[j]]) < 0
	})
	want := []int{3, 4, 2, 0, 1} // (null,m) (1,null) (1,a) (1,z) (2,a)
	for i := range want {
		if idx[i] != want[i] {
			t.Fatalf("composite order = %v, want %v", idx, want)
		}
	}
}

func TestEncodeKeyFloatEdges(t *testing.T) {
	vals := []float64{math.Inf(-1), -1e300, -1, -0.5, 0, 0.5, 1, 1e300, math.Inf(1)}
	for i := 1; i < len(vals); i++ {
		a := EncodeKey(nil, NewFloat(vals[i-1]))
		b := EncodeKey(nil, NewFloat(vals[i]))
		if bytes.Compare(a, b) >= 0 {
			t.Errorf("float key order broken at %v >= %v", vals[i-1], vals[i])
		}
	}
}

func TestEncodeKeyStringZeroBytes(t *testing.T) {
	// "a" must sort before "a\x00" and before "a\x00b".
	ks := [][]byte{
		EncodeKey(nil, NewString("a")),
		EncodeKey(nil, NewString("a\x00")),
		EncodeKey(nil, NewString("a\x00b")),
		EncodeKey(nil, NewString("ab")),
	}
	for i := 1; i < len(ks); i++ {
		if bytes.Compare(ks[i-1], ks[i]) >= 0 {
			t.Errorf("string key order broken at index %d", i)
		}
	}
}

// keySortRows draws n rows of the given column kinds, each value NULL
// one time in five and otherwise from a small pool of the kind's edge
// values (±0.0, ±Inf, the int64 extremes, empty and NUL-bearing strings)
// and random ones, so that equal keys and ties are common. NaN is left
// out: Compare gives it no order.
func keySortRows(rng *rand.Rand, kinds []Kind, n int) []Row {
	floats := []float64{math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), -1.5, 2}
	ints := []int64{math.MinInt64, math.MaxInt64, 0, -1, 1}
	strs := []string{"", "\x00", "\x00\x00", "a", "a\x00", "a\x00b", "ab", "b"}
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = make(Row, len(kinds))
		for c, k := range kinds {
			if rng.Intn(5) == 0 {
				continue // NULL
			}
			switch k {
			case KindInt:
				if rng.Intn(2) == 0 {
					rows[i][c] = NewInt(ints[rng.Intn(len(ints))])
				} else {
					rows[i][c] = NewInt(rng.Int63n(7) - 3)
				}
			case KindFloat:
				if rng.Intn(2) == 0 {
					rows[i][c] = NewFloat(floats[rng.Intn(len(floats))])
				} else {
					rows[i][c] = NewFloat(float64(rng.Intn(5)) - 2.5)
				}
			case KindString:
				rows[i][c] = NewString(strs[rng.Intn(len(strs))])
			case KindBool:
				rows[i][c] = NewBool(rng.Intn(2) == 0)
			default:
				rows[i][c] = NewDate(rng.Int63n(4) + 13514)
			}
		}
	}
	return rows
}

// TestSortKeysMatchesStableSort is SortKeys' contract as a property: on
// random rows of one to three columns of any kinds, its order is that
// of sort.SliceStable under CompareRows, every key is capped at its own
// end, and its runs (and Distinct) are the distinct encodings a map
// counts, each run holding equal rows.
func TestSortKeysMatchesStableSort(t *testing.T) {
	allKinds := []Kind{KindInt, KindFloat, KindString, KindBool, KindDate}
	prop := func(seed int64, size uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		kinds := make([]Kind, 1+rng.Intn(3))
		for c := range kinds {
			kinds[c] = allKinds[rng.Intn(len(allKinds))]
		}
		rows := keySortRows(rng, kinds, int(size))
		sorted := SortKeys(len(rows), func(dst []byte, i int) []byte {
			return EncodeKey(dst, rows[i]...)
		})
		want := make([]int, len(rows))
		for i := range want {
			want[i] = i
		}
		sort.SliceStable(want, func(a, b int) bool { return CompareRows(rows[want[a]], rows[want[b]], nil) < 0 })
		distinct, runs := map[string]bool{}, 0
		for i := range rows {
			p, k := sorted.Pos(i), sorted.Key(i)
			if p != want[i] || cap(k) != len(k) || !bytes.Equal(k, EncodeKey(nil, rows[p]...)) {
				t.Logf("seed %d kinds %v: item %d is %d (key %x, cap %d), want %d", seed, kinds, i, p, k, cap(k), want[i])
				return false
			}
			distinct[string(k)] = true
			if sorted.NewRun(i) {
				runs++
			} else if CompareRows(rows[p], rows[sorted.Pos(i-1)], nil) != 0 {
				t.Logf("seed %d kinds %v: item %d continues a run it does not equal", seed, kinds, i)
				return false
			}
		}
		if runs != len(distinct) || sorted.Distinct != runs {
			t.Logf("seed %d kinds %v: %d runs, Distinct %d, %d distinct keys", seed, kinds, runs, sorted.Distinct, len(distinct))
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
