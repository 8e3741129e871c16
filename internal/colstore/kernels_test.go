package colstore

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hybriddb/internal/storage"
	"hybriddb/internal/value"
)

var allOps = []PredOp{PredEQ, PredNE, PredLT, PredLE, PredGT, PredGE}

// naiveSel is the reference implementation the kernels must match: a
// per-row Match over materialized values.
func naiveSel(s *segment, p Pred, from, to int) []int {
	var sel []int
	for i := from; i < to; i++ {
		if p.Match(s.valueAt(i)) {
			sel = append(sel, i)
		}
	}
	return sel
}

func kernelSel(s *segment, p Pred, from, to int) []int {
	sp := compilePred(s, p)
	var skipped int64
	sel, _ := sp.first(nil, from, to, nil, &skipped)
	return sel
}

func sameSel(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// intDataSets builds integer columns that exercise every encoding:
// constant, bit-packed (random), RLE (sorted low-cardinality), with
// and without nulls, including negative bases and extreme values.
func intDataSets(rng *rand.Rand) map[string][]value.Value {
	sets := map[string][]value.Value{}
	constant := make([]value.Value, 500)
	for i := range constant {
		constant[i] = value.NewInt(-42)
	}
	sets["const"] = constant

	packed := make([]value.Value, 1000)
	for i := range packed {
		packed[i] = value.NewInt(rng.Int63n(2000) - 1000)
	}
	sets["packed"] = packed

	rle := make([]value.Value, 1200)
	for i := range rle {
		rle[i] = value.NewInt(int64(i / 100)) // 12 long runs
	}
	sets["rle"] = rle

	nullable := make([]value.Value, 800)
	for i := range nullable {
		if i%7 == 0 {
			nullable[i] = value.Null
		} else {
			nullable[i] = value.NewInt(int64(i % 13))
		}
	}
	sets["nullable"] = nullable

	extreme := make([]value.Value, 300)
	for i := range extreme {
		switch i % 3 {
		case 0:
			extreme[i] = value.NewInt(math.MinInt64)
		case 1:
			extreme[i] = value.NewInt(0)
		default:
			extreme[i] = value.NewInt(math.MaxInt64)
		}
	}
	sets["extreme"] = extreme

	allNull := make([]value.Value, 100)
	for i := range allNull {
		allNull[i] = value.Null
	}
	sets["allnull"] = allNull
	return sets
}

// TestKernelVsMatchInts runs every operator against every encoding
// with constants below, inside, between, and above the stored domain.
func TestKernelVsMatchInts(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for name, vals := range intDataSets(rng) {
		s := buildSegment(value.KindInt, vals)
		consts := []int64{math.MinInt64, -1001, -43, -42, -41, 0, 3, 7, 11, 12, 13, 999, 1000, 1001, math.MaxInt64 - 1, math.MaxInt64}
		for _, c := range consts {
			for _, op := range allOps {
				p := Pred{Col: 0, Op: op, Val: value.NewInt(c)}
				want := naiveSel(s, p, 0, s.n)
				got := kernelSel(s, p, 0, s.n)
				if !sameSel(got, want) {
					t.Fatalf("%s: %s %d: kernel %d rows, naive %d rows", name, op, c, len(got), len(want))
				}
			}
		}
	}
}

// TestKernelVsMatchStrings covers the dictionary translation: constants
// present in the dictionary, absent between entries, below the first
// and above the last entry.
func TestKernelVsMatchStrings(t *testing.T) {
	words := []string{"bb", "dd", "ff", "hh"}
	vals := make([]value.Value, 1000)
	for i := range vals {
		if i%11 == 0 {
			vals[i] = value.Null
		} else {
			vals[i] = value.NewString(words[i%len(words)])
		}
	}
	s := buildSegment(value.KindString, vals)
	consts := []string{"", "aa", "bb", "cc", "dd", "ee", "ff", "gg", "hh", "zz"}
	for _, c := range consts {
		for _, op := range allOps {
			p := Pred{Col: 0, Op: op, Val: value.NewString(c)}
			want := naiveSel(s, p, 0, s.n)
			got := kernelSel(s, p, 0, s.n)
			if !sameSel(got, want) {
				t.Fatalf("%s %q: kernel %d rows, naive %d rows", op, c, len(got), len(want))
			}
		}
	}
}

// TestKernelSubrangeAndRefine exercises morsel-style sub-ranges and the
// multi-predicate refine path against the naive conjunction.
func TestKernelSubrangeAndRefine(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	vals := make([]value.Value, 3000)
	for i := range vals {
		vals[i] = value.NewInt(rng.Int63n(50))
	}
	s := buildSegment(value.KindInt, vals)
	sorted := make([]value.Value, 3000)
	for i := range sorted {
		sorted[i] = value.NewInt(int64(i / 250))
	}
	sRLE := buildSegment(value.KindInt, sorted)

	for _, seg := range []*segment{s, sRLE} {
		for _, r := range [][2]int{{0, 3000}, {0, 512}, {512, 1024}, {2900, 3000}, {100, 101}, {500, 500}} {
			p1 := Pred{Op: PredGE, Val: value.NewInt(5)}
			p2 := Pred{Op: PredLT, Val: value.NewInt(9)}
			sp1, sp2 := compilePred(seg, p1), compilePred(seg, p2)
			var skipped int64
			sel, _ := sp1.first(nil, r[0], r[1], nil, &skipped)
			sel = sp2.refine(sel)
			var want []int
			for i := r[0]; i < r[1]; i++ {
				v := seg.valueAt(i)
				if p1.Match(v) && p2.Match(v) {
					want = append(want, i)
				}
			}
			if !sameSel(sel, want) {
				t.Fatalf("range %v: refine %d rows, naive %d rows", r, len(sel), len(want))
			}
		}
	}
}

// TestPushableGate checks the kernel-evaluability rules.
func TestPushableGate(t *testing.T) {
	cases := []struct {
		kind value.Kind
		v    value.Value
		want bool
	}{
		{value.KindInt, value.NewInt(1), true},
		{value.KindDate, value.NewDate(1), true},
		{value.KindBool, value.NewBool(true), true},
		{value.KindInt, value.NewDate(1), true},
		{value.KindString, value.NewString("x"), true},
		{value.KindString, value.NewInt(1), false},
		{value.KindFloat, value.NewFloat(1), false},
		{value.KindInt, value.NewFloat(1), false},
		{value.KindInt, value.NewString("x"), false},
	}
	for _, c := range cases {
		if got := Pushable(c.kind, c.v); got != c.want {
			t.Errorf("Pushable(%v, %v) = %v, want %v", c.kind, c.v.Kind(), got, c.want)
		}
	}
	if _, ok := ParseOp("LIKE"); ok {
		t.Error("ParseOp accepted LIKE")
	}
	for _, op := range []string{"=", "<>", "<", "<=", ">", ">="} {
		if _, ok := ParseOp(op); !ok {
			t.Errorf("ParseOp rejected %q", op)
		}
	}
}

// scanWithPreds collects rows and locators from a predicate-pushing
// scan.
func scanWithPreds(x *Index, spec ScanSpec) ([]value.Row, []Locator, *Scanner) {
	sc := x.NewScanner(nil, spec)
	ncols := len(spec.Cols)
	if spec.Cols == nil {
		ncols = x.Schema().Len()
	}
	var rows []value.Row
	var locs []Locator
	for sc.Next() {
		b := sc.Batch()
		for i := 0; i < b.Len(); i++ {
			rows = append(rows, b.Row(i)[:ncols])
		}
		locs = append(locs, sc.Locators()...)
	}
	return rows, locs, sc
}

// naiveFiltered applies preds to a predicate-free scan of the same
// index — the reference row set.
func naiveFiltered(x *Index, cols []int, preds []Pred, predCols []int) []value.Row {
	full := x.ScanRows(nil, nil)
	ncols := len(cols)
	if cols == nil {
		ncols = x.Schema().Len()
		cols = make([]int, ncols)
		for i := range cols {
			cols[i] = i
		}
	}
	var out []value.Row
	for _, r := range full {
		ok := true
		for pi, p := range preds {
			if !p.Match(r[predCols[pi]]) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		proj := make(value.Row, ncols)
		for i, c := range cols {
			proj[i] = r[c]
		}
		out = append(out, proj)
	}
	return out
}

func rowsEqual(t *testing.T, tag string, got, want []value.Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", tag, len(got), len(want))
	}
	for i := range got {
		if value.CompareRows(got[i], want[i], nil) != 0 {
			t.Fatalf("%s: row %d = %v, want %v", tag, i, got[i], want[i])
		}
	}
}

// buildMixed builds a two-column (int, string) primary index with
// several rowgroups mixing RLE-friendly and random data.
func buildMixed(n, groupSize int, seed int64) *Index {
	rng := rand.New(rand.NewSource(seed))
	st := storage.NewStore(0)
	sch := value.NewSchema(
		value.Column{Name: "a", Kind: value.KindInt},
		value.Column{Name: "s", Kind: value.KindString},
	)
	rows := make([]value.Row, n)
	for i := range rows {
		rows[i] = value.Row{
			value.NewInt(rng.Int63n(100)),
			value.NewString(fmt.Sprintf("w%02d", rng.Intn(20))),
		}
	}
	return Build(st, Config{Schema: sch, Primary: true, RowGroupSize: groupSize}, rows, nil)
}

// TestScannerKernelVsNaive compares full scanner output (rows and
// locators) between the kernel path and an unpushed scan with the same
// predicates applied afterwards — across projections, delete bitmaps,
// delta rows, and multi-predicate conjunctions.
func TestScannerKernelVsNaive(t *testing.T) {
	x := buildMixed(20000, 4096, 3)

	check := func(tag string, cols []int, preds []Pred) {
		t.Helper()
		spec := ScanSpec{Cols: cols, PruneCol: -1, Preds: preds}
		got, _, sc := scanWithPreds(x, spec)
		predCols := make([]int, len(preds))
		for i, p := range preds {
			predCols[i] = p.Col
		}
		want := naiveFiltered(x, cols, preds, predCols)
		rowsEqual(t, tag, got, want)
		if sc.FallbackBatches > 0 && x.DeltaRows() == 0 && x.BufferedDeletes() == 0 {
			t.Fatalf("%s: unexpected fallback batches %d", tag, sc.FallbackBatches)
		}
	}

	check("int-range", nil, []Pred{{Col: 0, Op: PredLT, Val: value.NewInt(5)}})
	check("int-eq", []int{0}, []Pred{{Col: 0, Op: PredEQ, Val: value.NewInt(42)}})
	check("string-eq", []int{1}, []Pred{{Col: 1, Op: PredEQ, Val: value.NewString("w07")}})
	check("string-range", nil, []Pred{{Col: 1, Op: PredGT, Val: value.NewString("w15")}})
	// Predicate on a column the caller did not project.
	check("unprojected-pred", []int{0}, []Pred{{Col: 1, Op: PredLE, Val: value.NewString("w03")}})
	// Conjunction across both columns.
	check("multi", nil, []Pred{
		{Col: 0, Op: PredGE, Val: value.NewInt(20)},
		{Col: 0, Op: PredLT, Val: value.NewInt(60)},
		{Col: 1, Op: PredNE, Val: value.NewString("w11")},
	})
	// Empty result.
	check("empty", nil, []Pred{{Col: 0, Op: PredGT, Val: value.NewInt(1000)}})

	// Delete some rows through the bitmap, then re-check: the kernel
	// path must respect deletions.
	sc := x.NewScanner(nil, ScanSpec{PruneCol: -1})
	var locs []Locator
	for sc.Next() {
		b := sc.Batch()
		ls := sc.Locators()
		for i := 0; i < b.Len(); i++ {
			if b.Row(i)[0].Int()%9 == 0 {
				locs = append(locs, ls[i])
			}
		}
	}
	for _, l := range locs {
		x.DeleteAt(nil, l)
	}
	check("deleted-int", nil, []Pred{{Col: 0, Op: PredLT, Val: value.NewInt(30)}})

	// Add delta rows: compressed groups stay on the kernel path, the
	// delta batch uses the fallback, and results still match.
	for i := 0; i < 500; i++ {
		x.Insert(nil, value.Row{value.NewInt(int64(i % 100)), value.NewString("w99")})
	}
	spec := ScanSpec{PruneCol: -1, Preds: []Pred{{Col: 0, Op: PredEQ, Val: value.NewInt(7)}}}
	got, _, sc2 := scanWithPreds(x, spec)
	want := naiveFiltered(x, nil, spec.Preds, []int{0})
	rowsEqual(t, "delta-mixed", got, want)
	if sc2.KernelBatches == 0 || sc2.FallbackBatches == 0 {
		t.Fatalf("delta-mixed: kernel=%d fallback=%d, want both > 0", sc2.KernelBatches, sc2.FallbackBatches)
	}
}

// TestScannerPredsWithDeleteBuffer forces the full fallback: a pending
// delete buffer disables kernels (the anti-semi multiset is consumed in
// physical row order), but pushed predicates must still be honored,
// after the delete logic.
func TestScannerPredsWithDeleteBuffer(t *testing.T) {
	st := storage.NewStore(0)
	sch := value.NewSchema(
		value.Column{Name: "k", Kind: value.KindInt},
		value.Column{Name: "v", Kind: value.KindInt},
	)
	rows := make([]value.Row, 10000)
	for i := range rows {
		rows[i] = value.Row{value.NewInt(int64(i)), value.NewInt(int64(i % 50))}
	}
	x := Build(st, Config{Schema: sch, KeyOrdinals: []int{0}, RowGroupSize: 4096}, rows, nil)
	for i := 0; i < 200; i++ {
		x.BufferDelete(nil, value.Row{value.NewInt(int64(i * 40))})
	}

	preds := []Pred{{Col: 1, Op: PredLT, Val: value.NewInt(10)}}
	got, _, sc := scanWithPreds(x, ScanSpec{PruneCol: -1, Preds: preds})
	if sc.KernelBatches != 0 {
		t.Fatalf("kernel batches = %d with pending delete buffer", sc.KernelBatches)
	}
	want := naiveFiltered(x, nil, preds, []int{1})
	rowsEqual(t, "delete-buffer", got, want)
}

// TestKernelLocatorsMatchNaive verifies the kernel path emits the same
// physical locators as post-filtering a naive scan — DML correctness
// depends on it.
func TestKernelLocatorsMatchNaive(t *testing.T) {
	x := buildMixed(12000, 4096, 5)
	preds := []Pred{{Col: 0, Op: PredEQ, Val: value.NewInt(33)}}

	_, gotLocs, _ := scanWithPreds(x, ScanSpec{PruneCol: -1, Preds: preds})

	sc := x.NewScanner(nil, ScanSpec{PruneCol: -1})
	var wantLocs []Locator
	for sc.Next() {
		b := sc.Batch()
		ls := sc.Locators()
		for i := 0; i < b.Len(); i++ {
			if preds[0].Match(b.Row(i)[0]) {
				wantLocs = append(wantLocs, ls[i])
			}
		}
	}
	if len(gotLocs) != len(wantLocs) {
		t.Fatalf("locators: %d, want %d", len(gotLocs), len(wantLocs))
	}
	for i := range gotLocs {
		if gotLocs[i] != wantLocs[i] {
			t.Fatalf("locator %d = %v, want %v", i, gotLocs[i], wantLocs[i])
		}
	}
}

// TestKernelStatsAndRunSkipping checks the observability counters: RLE
// data with a selective predicate must skip whole runs, and the
// selectivity stats must add up.
func TestKernelStatsAndRunSkipping(t *testing.T) {
	st := storage.NewStore(0)
	sch := value.NewSchema(value.Column{Name: "a", Kind: value.KindInt})
	rows := make([]value.Row, 40000)
	for i := range rows {
		rows[i] = value.Row{value.NewInt(int64(i / 1000))} // 40 long runs
	}
	x := Build(st, Config{Schema: sch, Primary: true, RowGroupSize: 1 << 20}, rows, nil)

	spec := ScanSpec{PruneCol: -1, Preds: []Pred{{Col: 0, Op: PredEQ, Val: value.NewInt(7)}}}
	got, _, sc := scanWithPreds(x, spec)
	if len(got) != 1000 {
		t.Fatalf("rows = %d, want 1000", len(got))
	}
	if sc.KernelBatches == 0 || sc.FallbackBatches != 0 {
		t.Fatalf("kernel=%d fallback=%d", sc.KernelBatches, sc.FallbackBatches)
	}
	if sc.KernelRowsIn != 40000 || sc.KernelRowsOut != 1000 {
		t.Fatalf("rows in/out = %d/%d, want 40000/1000", sc.KernelRowsIn, sc.KernelRowsOut)
	}
	if sc.RunsSkipped == 0 {
		t.Fatal("no RLE runs skipped on run-friendly data")
	}
}

// TestLocatorsAcrossPaths deletes rows through the locators of the
// batch that returned them on every scan path — the kernel path, the
// dense and selection-vector range paths, the delete-buffer fallback
// and the delta phase — and checks a fresh scan returns exactly the
// rows left. Locators are resolved on demand, so two calls on one
// batch must agree.
func TestLocatorsAcrossPaths(t *testing.T) {
	const n, gs, extra = 9000, 2048, 700
	sch := value.NewSchema(
		value.Column{Name: "k", Kind: value.KindInt},
		value.Column{Name: "v", Kind: value.KindInt},
	)
	row := func(k int64) value.Row { return value.Row{value.NewInt(k), value.NewInt(k % 40)} }
	preds := []Pred{{Col: 1, Op: PredLT, Val: value.NewInt(25)}}

	// scan runs spec over x and returns the keys it saw with their
	// locators, checking both Locators calls per batch agree.
	scan := func(tag string, x *Index, spec ScanSpec) ([]int64, []Locator, *Scanner) {
		sc := x.NewScanner(nil, spec)
		var keys []int64
		var locs []Locator
		for sc.Next() {
			b := sc.Batch()
			ls := sc.Locators()
			if len(ls) != b.Len() {
				t.Fatalf("%s: %d locators for %d rows", tag, len(ls), b.Len())
			}
			first := append([]Locator(nil), ls...)
			for i, l := range sc.Locators() {
				if l != first[i] {
					t.Fatalf("%s: second Locators call gives %v at %d, first %v", tag, l, i, first[i])
				}
			}
			for i := 0; i < b.Len(); i++ {
				keys = append(keys, b.Row(i)[0].Int())
			}
			locs = append(locs, first...)
		}
		return keys, locs, sc
	}

	for _, primary := range []bool{true, false} {
		for _, pushed := range []bool{false, true} {
			tag := fmt.Sprintf("primary=%v pushed=%v", primary, pushed)
			rows := make([]value.Row, n)
			for i := range rows {
				rows[i] = row(int64(i))
			}
			cfg := Config{Schema: sch, Primary: primary, RowGroupSize: gs}
			if !primary {
				cfg.KeyOrdinals = []int{0}
			}
			x := Build(storage.NewStore(0), cfg, rows, nil)
			for k := int64(n); k < n+extra; k++ {
				x.Insert(nil, row(k))
			}
			// Primary: bitmap-delete every fifth key of the first three
			// rowgroups (the rest keep dense batches). Secondary: leave
			// every fifth key of the first 4000 in the delete buffer.
			if primary {
				keys, locs, _ := scan(tag+" pre-delete", x, ScanSpec{PruneCol: -1})
				for i, l := range locs {
					if !l.Delta && l.Group < 3 && keys[i]%5 == 0 && !x.DeleteAt(nil, l) {
						t.Fatalf("%s: pre-delete at %v failed", tag, l)
					}
				}
			} else {
				for k := int64(0); k < 4000; k += 5 {
					x.BufferDelete(nil, value.Row{value.NewInt(k)})
				}
			}
			before, _, _ := scan(tag+" before", x, ScanSpec{PruneCol: -1})

			spec := ScanSpec{PruneCol: -1}
			if pushed {
				spec.Preds = preds
			}
			keys, locs, sc := scan(tag, x, spec)
			if pushed && primary && (sc.KernelBatches == 0 || sc.FallbackBatches == 0) {
				t.Fatalf("%s: kernel batches %d, fallback batches %d: both paths must run", tag, sc.KernelBatches, sc.FallbackBatches)
			}
			if sc.DeltaRowsScanned == 0 {
				t.Fatalf("%s: the delta phase did not run", tag)
			}
			for i, k := range keys {
				if k%7 == 0 && !x.DeleteAt(nil, locs[i]) {
					t.Fatalf("%s: delete of key %d at %v failed", tag, k, locs[i])
				}
			}

			want := map[int64]bool{}
			for _, k := range before {
				if k%7 != 0 || (pushed && !preds[0].Match(row(k)[1])) {
					want[k] = true
				}
			}
			after, _, _ := scan(tag+" after", x, ScanSpec{PruneCol: -1})
			got := map[int64]bool{}
			for _, k := range after {
				if got[k] || !want[k] {
					t.Fatalf("%s: fresh scan returned key %d (again, or deleted)", tag, k)
				}
				got[k] = true
			}
			if len(got) != len(want) {
				t.Fatalf("%s: fresh scan returned %d rows, want %d", tag, len(got), len(want))
			}
		}
	}
}
