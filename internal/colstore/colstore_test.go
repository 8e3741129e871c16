package colstore

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"hybriddb/internal/storage"
	"hybriddb/internal/value"
	"hybriddb/internal/vclock"
)

func seg(t *testing.T, x *Index, group, col int) *segment {
	t.Helper()
	return x.store.Get(nil, x.groups[group].segIDs[col], true).(*segment)
}

// TestRunLengthEncodingPaperExample reproduces Figure 8 exactly: two
// integer columns A and B; the greedy strategy sorts by B (2 distinct)
// then A (3 distinct), yielding encoded segments A = (0,1),(1,1),(3,4)
// and B = (0,3),(1,3).
func TestRunLengthEncodingPaperExample(t *testing.T) {
	st := storage.NewStore(0)
	sch := value.NewSchema(value.Column{Name: "A", Kind: value.KindInt}, value.Column{Name: "B", Kind: value.KindInt})
	// The paper's 6-row table, each row replicated so that RLE wins the
	// size contest against bit-packing (the choice is size-based, as in
	// the real engine); run counts scale by the replication factor.
	const rep = 1000
	base := []value.Row{
		{value.NewInt(3), value.NewInt(0)},
		{value.NewInt(3), value.NewInt(1)},
		{value.NewInt(0), value.NewInt(0)},
		{value.NewInt(1), value.NewInt(0)},
		{value.NewInt(3), value.NewInt(1)},
		{value.NewInt(3), value.NewInt(1)},
	}
	var rows []value.Row
	for r := 0; r < rep; r++ {
		rows = append(rows, base...)
	}
	x := Build(st, Config{Schema: sch, Primary: true}, rows, nil)
	if _, got := x.sortForCompression(rows); len(got) != 2 || got[0] != 1 || got[1] != 0 {
		t.Fatalf("sort order = %v, want [1 0] (B then A)", got)
	}
	segA, segB := seg(t, x, 0, 0), seg(t, x, 0, 1)
	wantA := []run{{0, 1 * rep}, {1, 1 * rep}, {3, 4 * rep}}
	wantB := []run{{0, 3 * rep}, {1, 3 * rep}}
	checkRuns := func(name string, s *segment, want []run) {
		t.Helper()
		if s.enc != encRLE {
			t.Fatalf("%s: enc = %d, want RLE", name, s.enc)
		}
		if len(s.runs) != len(want) {
			t.Fatalf("%s: runs = %v, want %v", name, s.runs, want)
		}
		for i := range want {
			if s.base+s.runs[i].val != want[i].val || s.runs[i].count != want[i].count {
				t.Fatalf("%s: run %d = {%d,%d}, want %v", name, i, s.base+s.runs[i].val, s.runs[i].count, want[i])
			}
		}
	}
	checkRuns("A", segA, wantA)
	checkRuns("B", segB, wantB)
}

func TestSegmentEncodingSelection(t *testing.T) {
	constVals := make([]value.Value, 1000)
	for i := range constVals {
		constVals[i] = value.NewInt(7)
	}
	s := buildSegment(value.KindInt, constVals)
	if s.enc != encConst {
		t.Errorf("constant column enc = %d", s.enc)
	}
	if s.min.Int() != 7 || s.max.Int() != 7 {
		t.Errorf("const metadata: min=%v max=%v", s.min, s.max)
	}

	// Highly repetitive sorted data: RLE wins.
	rle := make([]value.Value, 10000)
	for i := range rle {
		rle[i] = value.NewInt(int64(i / 1000))
	}
	s = buildSegment(value.KindInt, rle)
	if s.enc != encRLE {
		t.Errorf("repetitive column enc = %d, want RLE", s.enc)
	}

	// Random wide data: bit packing wins.
	rng := rand.New(rand.NewSource(1))
	packed := make([]value.Value, 10000)
	for i := range packed {
		packed[i] = value.NewInt(rng.Int63n(1 << 30))
	}
	s = buildSegment(value.KindInt, packed)
	if s.enc != encPacked {
		t.Errorf("random column enc = %d, want packed", s.enc)
	}
	if s.width == 0 || s.width > 30 {
		t.Errorf("packed width = %d", s.width)
	}
	// Compressed size well below raw 8 B/value.
	if s.bytes >= 8*10000 {
		t.Errorf("packed bytes = %d, no compression achieved", s.bytes)
	}
}

func TestSegmentRoundTripAllKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	kinds := []value.Kind{value.KindInt, value.KindFloat, value.KindString, value.KindBool, value.KindDate}
	for _, k := range kinds {
		vals := make([]value.Value, 5000)
		for i := range vals {
			switch {
			case rng.Intn(20) == 0:
				vals[i] = value.Null
			case k == value.KindInt:
				vals[i] = value.NewInt(rng.Int63n(1000) - 500)
			case k == value.KindFloat:
				vals[i] = value.NewFloat(float64(rng.Intn(100)) * 1.5)
			case k == value.KindString:
				vals[i] = value.NewString(string(rune('a' + rng.Intn(26))))
			case k == value.KindBool:
				vals[i] = value.NewBool(rng.Intn(2) == 0)
			default:
				vals[i] = value.NewDate(int64(rng.Intn(10000)))
			}
		}
		s := buildSegment(k, vals)
		for i, want := range vals {
			got := s.valueAt(i)
			if value.Compare(got, want) != 0 {
				t.Fatalf("%v: position %d = %v, want %v (enc %d)", k, i, got, want, s.enc)
			}
		}
		checkDecoded(t, s, vals)
	}
}

func TestSegmentMinMax(t *testing.T) {
	vals := []value.Value{value.NewInt(5), value.Null, value.NewInt(-3), value.NewInt(9)}
	s := buildSegment(value.KindInt, vals)
	if s.min.Int() != -3 || s.max.Int() != 9 {
		t.Errorf("min=%v max=%v", s.min, s.max)
	}
	strs := []value.Value{value.NewString("pear"), value.NewString("apple"), value.NewString("zinc")}
	s = buildSegment(value.KindString, strs)
	if s.min.Str() != "apple" || s.max.Str() != "zinc" {
		t.Errorf("string min=%v max=%v", s.min, s.max)
	}
	allNull := []value.Value{value.Null, value.Null}
	s = buildSegment(value.KindInt, allNull)
	if !s.min.IsNull() || !s.max.IsNull() {
		t.Errorf("all-null min/max should be null")
	}
}

func buildInts(t *testing.T, n, groupSize int, shuffle bool) (*Index, *storage.Store) {
	t.Helper()
	st := storage.NewStore(0)
	sch := value.NewSchema(value.Column{Name: "col1", Kind: value.KindInt})
	rows := make([]value.Row, n)
	for i := range rows {
		rows[i] = value.Row{value.NewInt(int64(i))}
	}
	if shuffle {
		rand.New(rand.NewSource(9)).Shuffle(n, func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	}
	return Build(st, Config{Schema: sch, Primary: true, RowGroupSize: groupSize}, rows, nil), st
}

func TestScanAllRows(t *testing.T) {
	x, _ := buildInts(t, 25000, 4096, true)
	if x.Groups() != 7 {
		t.Fatalf("groups = %d", x.Groups())
	}
	rows := x.ScanRows(nil, nil)
	if len(rows) != 25000 {
		t.Fatalf("scanned %d", len(rows))
	}
	got := make([]int64, len(rows))
	for i, r := range rows {
		got[i] = r[0].Int()
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("missing value %d", i)
		}
	}
}

func TestSegmentEliminationSortedVsRandom(t *testing.T) {
	const n, gs = 100000, 4096
	run := func(shuffle bool) (scanned, eliminated int) {
		x, _ := buildInts(t, n, gs, shuffle)
		sc := x.NewScanner(nil, ScanSpec{
			PruneCol: 0,
			Lo:       value.NewInt(0),
			Hi:       value.NewInt(999), // 1% selectivity
		})
		for sc.Next() {
		}
		return sc.GroupsScanned, sc.GroupsEliminated
	}
	sortedScanned, sortedElim := run(false)
	randScanned, randElim := run(true)
	if sortedElim == 0 || sortedScanned > 2 {
		t.Errorf("sorted build: scanned=%d eliminated=%d, expected aggressive skipping", sortedScanned, sortedElim)
	}
	if randElim != 0 || randScanned != (n+gs-1)/gs {
		t.Errorf("random build: scanned=%d eliminated=%d, expected no skipping", randScanned, randElim)
	}
}

func TestScanChargesSequentialIO(t *testing.T) {
	x, st := buildInts(t, 50000, 8192, true)
	st.Cool()
	tr := vclock.NewTracker(vclock.DefaultModel(vclock.HDD))
	sc := x.NewScanner(tr, ScanSpec{PruneCol: -1})
	for sc.Next() {
	}
	if tr.SeqIO == 0 || tr.RandIO != 0 {
		t.Errorf("seq=%v rand=%v", tr.SeqIO, tr.RandIO)
	}
	if tr.SegmentsRead != int64(x.Groups()) {
		t.Errorf("segments read = %d, groups = %d", tr.SegmentsRead, x.Groups())
	}
	// Elimination avoids IO entirely.
	st.Cool()
	tr2 := vclock.NewTracker(vclock.DefaultModel(vclock.HDD))
	x2, st2 := buildInts(t, 50000, 8192, false)
	st2.Cool()
	sc2 := x2.NewScanner(tr2, ScanSpec{PruneCol: 0, Lo: value.NewInt(0), Hi: value.NewInt(100)})
	for sc2.Next() {
	}
	if tr2.BytesRead >= tr.BytesRead/4 {
		t.Errorf("eliminated scan read %d vs full %d", tr2.BytesRead, tr.BytesRead)
	}
}

func TestDeltaStoreInsertAndScan(t *testing.T) {
	x, _ := buildInts(t, 8192, 4096, false)
	for i := 0; i < 100; i++ {
		x.Insert(nil, value.Row{value.NewInt(int64(1000000 + i))})
	}
	if x.DeltaRows() != 100 {
		t.Fatalf("delta rows = %d", x.DeltaRows())
	}
	if x.Rows() != 8292 {
		t.Fatalf("rows = %d", x.Rows())
	}
	rows := x.ScanRows(nil, nil)
	if len(rows) != 8292 {
		t.Fatalf("scanned %d", len(rows))
	}
	// Tuple move compresses the delta into a rowgroup.
	before := x.Groups()
	x.TupleMove(nil)
	if x.DeltaRows() != 0 {
		t.Errorf("delta after tuple move = %d", x.DeltaRows())
	}
	if x.Groups() != before+1 {
		t.Errorf("groups = %d, want %d", x.Groups(), before+1)
	}
	if got := len(x.ScanRows(nil, nil)); got != 8292 {
		t.Errorf("rows after tuple move = %d", got)
	}
}

func TestDeleteBitmap(t *testing.T) {
	x, _ := buildInts(t, 10000, 4096, false)
	// Locate rows with col1 < 100 by scan, then delete them.
	sc := x.NewScanner(nil, ScanSpec{PruneCol: -1})
	var locs []Locator
	for sc.Next() {
		b := sc.Batch()
		ls := sc.Locators()
		for i := 0; i < b.Len(); i++ {
			if b.Row(i)[0].Int() < 100 {
				locs = append(locs, ls[i])
			}
		}
	}
	if len(locs) != 100 {
		t.Fatalf("located %d", len(locs))
	}
	for _, l := range locs {
		if !x.DeleteAt(nil, l) {
			t.Fatalf("delete at %v failed", l)
		}
	}
	if x.DeleteAt(nil, locs[0]) {
		t.Fatal("double delete succeeded")
	}
	if x.Rows() != 9900 || x.DeletedBitmapRows() != 100 {
		t.Fatalf("rows=%d bitmap=%d", x.Rows(), x.DeletedBitmapRows())
	}
	for _, r := range x.ScanRows(nil, nil) {
		if r[0].Int() < 100 {
			t.Fatalf("deleted row %v visible", r)
		}
	}
}

func secondaryIndex(t *testing.T, n int) *Index {
	t.Helper()
	st := storage.NewStore(0)
	sch := value.NewSchema(
		value.Column{Name: "pk", Kind: value.KindInt},
		value.Column{Name: "v", Kind: value.KindInt},
	)
	rows := make([]value.Row, n)
	for i := range rows {
		rows[i] = value.Row{value.NewInt(int64(i)), value.NewInt(int64(i % 97))}
	}
	return Build(st, Config{Schema: sch, KeyOrdinals: []int{0}, RowGroupSize: 4096}, rows, nil)
}

func TestDeleteBufferAntiJoin(t *testing.T) {
	x := secondaryIndex(t, 10000)
	for i := 0; i < 50; i++ {
		x.BufferDelete(nil, value.Row{value.NewInt(int64(i * 100))})
	}
	if x.BufferedDeletes() != 50 {
		t.Fatalf("buffered = %d", x.BufferedDeletes())
	}
	if x.Rows() != 9950 {
		t.Fatalf("rows = %d", x.Rows())
	}
	// Scan projecting only column v: the anti-join must still work by
	// decoding the key column internally.
	sc := x.NewScanner(nil, ScanSpec{Cols: []int{1}, PruneCol: -1})
	count := 0
	for sc.Next() {
		count += sc.Batch().Len()
	}
	if count != 9950 {
		t.Fatalf("visible rows = %d", count)
	}
	// Full scan excludes exactly the buffered keys.
	seen := map[int64]bool{}
	for _, r := range x.ScanRows(nil, nil) {
		seen[r[0].Int()] = true
	}
	for i := 0; i < 50; i++ {
		if seen[int64(i*100)] {
			t.Fatalf("buffered-deleted key %d visible", i*100)
		}
	}
	// Compaction moves buffer entries to bitmaps.
	x.TupleMove(nil)
	if x.BufferedDeletes() != 0 || x.DeletedBitmapRows() != 50 {
		t.Fatalf("after compaction: buf=%d bitmap=%d", x.BufferedDeletes(), x.DeletedBitmapRows())
	}
	if got := len(x.ScanRows(nil, nil)); got != 9950 {
		t.Fatalf("rows after compaction = %d", got)
	}
}

func TestAntiJoinChargesProbes(t *testing.T) {
	x := secondaryIndex(t, 10000)
	m := vclock.DefaultModel(vclock.DRAM)
	clean := vclock.NewTracker(m)
	sc := x.NewScanner(clean, ScanSpec{PruneCol: -1})
	for sc.Next() {
	}
	x.BufferDelete(nil, value.Row{value.NewInt(1)})
	dirty := vclock.NewTracker(m)
	sc = x.NewScanner(dirty, ScanSpec{PruneCol: -1})
	for sc.Next() {
	}
	if dirty.CPUTime() <= clean.CPUTime() {
		t.Errorf("anti-join scan cpu %v should exceed clean scan %v", dirty.CPUTime(), clean.CPUTime())
	}
}

func TestBulkInsertSplitsCompressedAndDelta(t *testing.T) {
	x, _ := buildInts(t, 0, 4096, false)
	rows := make([]value.Row, 10000)
	for i := range rows {
		rows[i] = value.Row{value.NewInt(int64(i))}
	}
	x.BulkInsert(nil, rows)
	if x.Groups() != 2 {
		t.Errorf("groups = %d", x.Groups())
	}
	if x.DeltaRows() != 10000-8192 {
		t.Errorf("delta = %d", x.DeltaRows())
	}
	if x.Rows() != 10000 {
		t.Errorf("rows = %d", x.Rows())
	}
}

func TestColumnBytesCompression(t *testing.T) {
	st := storage.NewStore(0)
	sch := value.NewSchema(
		value.Column{Name: "lowcard", Kind: value.KindInt},
		value.Column{Name: "highcard", Kind: value.KindInt},
	)
	rng := rand.New(rand.NewSource(5))
	rows := make([]value.Row, 50000)
	for i := range rows {
		rows[i] = value.Row{value.NewInt(rng.Int63n(25)), value.NewInt(rng.Int63())}
	}
	x := Build(st, Config{Schema: sch, Primary: true, RowGroupSize: 1 << 20}, rows, nil)
	low, high := x.ColumnBytes(0), x.ColumnBytes(1)
	if low*10 > high {
		t.Errorf("low-cardinality column %d bytes should be far smaller than high-cardinality %d", low, high)
	}
	if x.Bytes() < low+high {
		t.Errorf("total %d < columns %d", x.Bytes(), low+high)
	}
}

func TestDeleteDeltaRow(t *testing.T) {
	x, _ := buildInts(t, 0, 4096, false)
	loc := x.Insert(nil, value.Row{value.NewInt(1)})
	if !x.DeleteAt(nil, loc) {
		t.Fatal("delta delete failed")
	}
	if x.DeleteAt(nil, loc) {
		t.Fatal("double delta delete succeeded")
	}
	if x.Rows() != 0 || len(x.ScanRows(nil, nil)) != 0 {
		t.Fatal("delta row still visible")
	}
}

func TestSecondaryRequiresKeys(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("secondary index without keys did not panic")
		}
	}()
	Build(storage.NewStore(0), Config{
		Schema: value.NewSchema(value.Column{Name: "a", Kind: value.KindInt}),
	}, nil, nil)
}

func TestGroupStat(t *testing.T) {
	x, _ := buildInts(t, 4096, 4096, false)
	gs := x.GroupStat(0)
	if gs.Rows != 4096 || gs.Deleted != 0 {
		t.Errorf("stat = %+v", gs)
	}
	if gs.Min[0].Int() != 0 || gs.Max[0].Int() != 4095 {
		t.Errorf("min/max = %v/%v", gs.Min[0], gs.Max[0])
	}
}

func TestAutoTupleMoveAtThreshold(t *testing.T) {
	x, _ := buildInts(t, 0, 1024, false)
	for i := 0; i < 1023; i++ {
		x.Insert(nil, value.Row{value.NewInt(int64(i))})
	}
	if x.DeltaRows() != 1023 || x.Groups() != 0 {
		t.Fatalf("pre-threshold: delta=%d groups=%d", x.DeltaRows(), x.Groups())
	}
	x.Insert(nil, value.Row{value.NewInt(1023)})
	if x.DeltaRows() != 0 || x.Groups() != 1 {
		t.Fatalf("post-threshold: delta=%d groups=%d", x.DeltaRows(), x.Groups())
	}
	if got := len(x.ScanRows(nil, nil)); got != 1024 {
		t.Fatalf("rows = %d", got)
	}
}

func TestPruneFraction(t *testing.T) {
	sorted, _ := buildInts(t, 100000, 4096, false)
	// [0, 999] covers ~1 of 25 groups on sorted data.
	f := sorted.PruneFraction(0, value.NewInt(0), value.NewInt(999))
	if f > 0.1 {
		t.Errorf("sorted prune fraction = %v", f)
	}
	random, _ := buildInts(t, 100000, 4096, true)
	f = random.PruneFraction(0, value.NewInt(0), value.NewInt(999))
	if f != 1 {
		t.Errorf("random prune fraction = %v, want 1", f)
	}
	// Open bounds scan everything; empty index scans nothing.
	if got := sorted.PruneFraction(0, value.Null, value.Null); got != 1 {
		t.Errorf("open prune = %v", got)
	}
	empty, _ := buildInts(t, 0, 1024, false)
	if got := empty.PruneFraction(0, value.NewInt(0), value.NewInt(1)); got != 1 {
		t.Errorf("empty prune = %v", got)
	}
}

// TestDistinctCountMatchesKeySort: the distinct count that orders a
// rowgroup's columns is the number of runs a key sort of the column
// finds, for every kind, with NULLs, −0.0 beside +0.0, NaN and strings
// holding NUL bytes.
func TestDistinctCountMatchesKeySort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	gen := map[value.Kind]func(int) value.Value{
		value.KindInt:  func(n int) value.Value { return value.NewInt(rng.Int63n(int64(n)) - int64(n)/2) },
		value.KindDate: func(n int) value.Value { return value.NewDate(rng.Int63n(int64(n))) },
		value.KindBool: func(int) value.Value { return value.NewBool(rng.Intn(2) == 0) },
		value.KindString: func(n int) value.Value {
			return value.NewString(string([]byte{'a', byte(rng.Intn(n)), 0, 'z'}[:rng.Intn(4)+1]))
		},
		value.KindFloat: func(n int) value.Value {
			switch rng.Intn(8) {
			case 0:
				return value.NewFloat(math.Copysign(0, -1))
			case 1:
				return value.NewFloat(0)
			case 2:
				return value.NewFloat(math.NaN())
			}
			return value.NewFloat(float64(rng.Intn(n)) / 4)
		},
	}
	var d distinctCounter
	for _, kind := range []value.Kind{value.KindInt, value.KindDate, value.KindBool, value.KindString, value.KindFloat} {
		g := gen[kind]
		for _, n := range []int{1, 3, 50, 5000} {
			chunk := make([]value.Row, 2000)
			for i := range chunk {
				v := g(n)
				if rng.Intn(10) == 0 {
					v = value.Null
				}
				chunk[i] = value.Row{value.NewInt(int64(i)), v}
			}
			if got, want := d.count(chunk, 1, kind), value.SortRows(chunk, []int{1}).Distinct; got != want {
				t.Errorf("%v over %d values: %d distinct, a key sort finds %d", kind, n, got, want)
			}
		}
	}
}
