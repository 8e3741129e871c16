package table

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"hybriddb/internal/storage"
	"hybriddb/internal/value"
	"hybriddb/internal/vclock"
)

func newTestTable(t *testing.T) *Table {
	t.Helper()
	st := storage.NewStore(0)
	sch := value.NewSchema(
		value.Column{Name: "id", Kind: value.KindInt},
		value.Column{Name: "v", Kind: value.KindInt},
		value.Column{Name: "s", Kind: value.KindString},
	)
	tb := New(st, "test", sch, []int{0})
	tb.SetRowGroupSize(1024)
	return tb
}

func loadRows(tb *Table, n int) {
	rows := make([]value.Row, n)
	for i := range rows {
		rows[i] = value.Row{
			value.NewInt(int64(i)),
			value.NewInt(int64(i % 13)),
			value.NewString("row"),
		}
	}
	tb.BulkLoad(nil, rows)
}

func ids(tb *Table) []int64 {
	rows, _ := tb.AllRows(nil)
	out := make([]int64, len(rows))
	for i, r := range rows {
		out[i] = r[0].Int()
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func checkIDs(t *testing.T, tb *Table, want []int64) {
	t.Helper()
	got := ids(tb)
	if len(got) != len(want) {
		t.Fatalf("%s primary: %d rows, want %d", tb.Primary(), len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s primary: ids[%d] = %d, want %d", tb.Primary(), i, got[i], want[i])
		}
	}
}

func wantRange(n int, exclude func(int64) bool) []int64 {
	var out []int64
	for i := 0; i < n; i++ {
		if exclude == nil || !exclude(int64(i)) {
			out = append(out, int64(i))
		}
	}
	return out
}

// TestDMLAcrossPrimaries runs the same insert/delete/update workload
// against all three primary structures and checks identical logical
// state.
func TestDMLAcrossPrimaries(t *testing.T) {
	for _, kind := range []PrimaryKind{PrimaryHeap, PrimaryBTree, PrimaryColumnstore} {
		tb := newTestTable(t)
		loadRows(tb, 3000)
		tb.ConvertPrimary(nil, kind, []int{0})
		if tb.Primary() != kind {
			t.Fatalf("primary = %v", tb.Primary())
		}
		checkIDs(t, tb, wantRange(3000, nil))

		// Trickle inserts.
		tb.Insert(nil, value.Row{value.NewInt(5000), value.NewInt(1), value.NewString("new")})
		tb.Insert(nil, value.Row{value.NewInt(5001), value.NewInt(2), value.NewString("new")})
		if tb.RowCount() != 3002 {
			t.Fatalf("%v: count = %d", kind, tb.RowCount())
		}

		// Delete ids < 100 plus one inserted row.
		rows, uids := tb.AllRows(nil)
		var matches []Match
		for i, r := range rows {
			if r[0].Int() < 100 || r[0].Int() == 5000 {
				matches = append(matches, Match{Row: r, UID: uids[i]})
			}
		}
		if got := tb.Delete(nil, matches); got != 101 {
			t.Fatalf("%v: deleted %d", kind, got)
		}
		want := wantRange(3000, func(i int64) bool { return i < 100 })
		want = append(want, 5001)
		checkIDs(t, tb, want)

		// Update: bump v for ids in [100, 110).
		rows, uids = tb.AllRows(nil)
		var ups []Update
		for i, r := range rows {
			if id := r[0].Int(); id >= 100 && id < 110 {
				n := r.Clone()
				n[1] = value.NewInt(999)
				ups = append(ups, Update{Old: r, New: n, UID: uids[i]})
			}
		}
		if got := tb.ApplyUpdates(nil, ups); got != 10 {
			t.Fatalf("%v: updated %d", kind, got)
		}
		rows, _ = tb.AllRows(nil)
		cnt := 0
		for _, r := range rows {
			if r[1].Int() == 999 {
				cnt++
				if r[0].Int() < 100 || r[0].Int() >= 110 {
					t.Fatalf("%v: wrong row updated: %v", kind, r)
				}
			}
		}
		if cnt != 10 {
			t.Fatalf("%v: %d rows updated", kind, cnt)
		}
	}
}

func TestSecondaryBTreeMaintenance(t *testing.T) {
	tb := newTestTable(t)
	loadRows(tb, 2000)
	sec := tb.AddSecondaryBTree(nil, "ix_v", []int{1}, []int{0})
	if sec.Tree.Count() != 2000 {
		t.Fatalf("secondary count = %d", sec.Tree.Count())
	}
	// Insert reflects into secondary.
	tb.Insert(nil, value.Row{value.NewInt(9000), value.NewInt(7), value.NewString("x")})
	if sec.Tree.Count() != 2001 {
		t.Fatalf("after insert: %d", sec.Tree.Count())
	}
	// Range over v=7 via the secondary returns ids with v=7.
	count := 0
	for it := sec.Tree.Seek(nil, value.Row{value.NewInt(7)}); it.Valid(); it.Next() {
		if it.Key()[0].Int() != 7 {
			break
		}
		count++
	}
	want := 2000/13 + 1 // ids where i%13==7, plus the inserted row
	if count < want-1 || count > want+1 {
		t.Fatalf("secondary range count = %d, want ~%d", count, want)
	}
	// Delete reflects into secondary.
	rows, uids := tb.AllRows(nil)
	var matches []Match
	for i, r := range rows {
		if r[1].Int() == 7 {
			matches = append(matches, Match{Row: r, UID: uids[i]})
		}
	}
	tb.Delete(nil, matches)
	for it := sec.Tree.Seek(nil, value.Row{value.NewInt(7)}); it.Valid(); it.Next() {
		if it.Key()[0].Int() == 7 {
			t.Fatal("deleted key still in secondary")
		}
		break
	}
}

func TestSecondaryCSIMaintenance(t *testing.T) {
	tb := newTestTable(t)
	loadRows(tb, 2000)
	tb.ConvertPrimary(nil, PrimaryBTree, []int{0})
	sec := tb.AddSecondaryCSI(nil, "csi_all")
	if sec.CSI.Rows() != 2000 {
		t.Fatalf("csi rows = %d", sec.CSI.Rows())
	}
	if sec.CSI.Primary() {
		t.Fatal("secondary CSI marked primary")
	}
	// Only one CSI allowed.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("second CSI did not panic")
			}
		}()
		tb.AddSecondaryCSI(nil, "csi_two")
	}()
	// Deletes go through the delete buffer.
	rows, uids := tb.AllRows(nil)
	tb.Delete(nil, []Match{{Row: rows[0], UID: uids[0]}, {Row: rows[1], UID: uids[1]}})
	if sec.CSI.BufferedDeletes() != 2 {
		t.Fatalf("buffered deletes = %d", sec.CSI.BufferedDeletes())
	}
	if sec.CSI.Rows() != 1998 {
		t.Fatalf("csi rows after delete = %d", sec.CSI.Rows())
	}
	// Updates: delete buffer + delta insert.
	rows, uids = tb.AllRows(nil)
	n := rows[0].Clone()
	n[1] = value.NewInt(-1)
	tb.ApplyUpdates(nil, []Update{{Old: rows[0], New: n, UID: uids[0]}})
	if sec.CSI.DeltaRows() != 1 {
		t.Fatalf("delta rows = %d", sec.CSI.DeltaRows())
	}
	// Tuple move cleans both.
	tb.TupleMove(nil)
	if sec.CSI.BufferedDeletes() != 0 || sec.CSI.DeltaRows() != 0 {
		t.Fatal("tuple move incomplete")
	}
	if sec.CSI.Rows() != 1998 {
		t.Fatalf("csi rows after tuple move = %d", sec.CSI.Rows())
	}
}

func TestPrimaryCSIDeleteCostsScan(t *testing.T) {
	// The locate-by-scan cost of primary-columnstore deletes (Section
	// 3.3) only dominates at scale: delete the most recently loaded row
	// of a 100k-row table so the locator scan runs to the last rowgroup.
	const n = 100000
	tb := newTestTable(t)
	tb.SetRowGroupSize(8192)
	loadRows(tb, n)
	tb.ConvertPrimary(nil, PrimaryColumnstore, nil)
	m := vclock.DefaultModel(vclock.DRAM)

	rows, uids := tb.AllRows(nil)
	last := 0
	for i, u := range uids {
		if u > uids[last] {
			last = i
		}
	}
	trCSI := vclock.NewTracker(m)
	tb.Delete(trCSI, []Match{{Row: rows[last], UID: uids[last]}})

	tb2 := newTestTable(t)
	tb2.SetRowGroupSize(8192)
	loadRows(tb2, n)
	tb2.ConvertPrimary(nil, PrimaryBTree, []int{0})
	rows2, uids2 := tb2.AllRows(nil)
	trBT := vclock.NewTracker(m)
	tb2.Delete(trBT, []Match{{Row: rows2[last], UID: uids2[last]}})

	if trCSI.CPUTime() <= trBT.CPUTime()*2 {
		t.Errorf("primary CSI delete cpu %v should far exceed B+ tree delete %v", trCSI.CPUTime(), trBT.CPUTime())
	}
}

func TestHistograms(t *testing.T) {
	tb := newTestTable(t)
	rng := rand.New(rand.NewSource(4))
	rows := make([]value.Row, 20000)
	for i := range rows {
		rows[i] = value.Row{
			value.NewInt(rng.Int63n(1000)),
			value.NewInt(int64(i % 10)),
			value.NewString("r"),
		}
	}
	tb.BulkLoad(nil, rows)
	h := tb.Histogram(0)
	got := h.SelectivityRange(value.NewInt(0), value.NewInt(99))
	if got < 0.05 || got > 0.15 {
		t.Errorf("sel = %v, want ~0.1", got)
	}
	// Histogram invalidated by DML.
	rows2, uids := tb.AllRows(nil)
	var matches []Match
	for i := 0; i < 10000; i++ {
		matches = append(matches, Match{Row: rows2[i], UID: uids[i]})
	}
	tb.Delete(nil, matches)
	h2 := tb.Histogram(0)
	if h2 == h {
		t.Error("histogram not invalidated")
	}
}

// TestSample checks the block sampler on every primary: a heap and a
// clustered B+ tree with deleted and inserted rows, and a clustered
// columnstore with bitmap-deleted rows and delta rows. A sample holds
// only live rows, each once; it is the whole table up to sampleRows
// live rows, and beyond that reaches sampleRows by less than one block;
// every block is in it whole or not at all; a fixed table state yields
// the same sample; and sampling leaves a bounded buffer pool's hits,
// misses and resident bytes as they were.
func TestSample(t *testing.T) {
	for _, kind := range []PrimaryKind{PrimaryHeap, PrimaryBTree, PrimaryColumnstore} {
		t.Run(kind.String(), func(t *testing.T) {
			st := storage.NewStore(256 << 10)
			tb := New(st, "s", newTestTable(t).Schema, nil)
			tb.SetRowGroupSize(1024)
			// sample draws the table's sample, failing if that moved the pool.
			sample := func() []value.Row {
				hits, misses := st.Stats()
				resident := st.ResidentBytes()
				s := tb.Sample()
				if h, m := st.Stats(); h != hits || m != misses || st.ResidentBytes() != resident {
					t.Errorf("sampling moved the pool: hits %d -> %d, misses %d -> %d, resident %d -> %d",
						hits, h, misses, m, resident, st.ResidentBytes())
				}
				return s
			}
			if s := sample(); len(s) != 0 || tb.Stats().Rows != 0 || tb.Stats().Fraction != 0 {
				t.Fatalf("empty table: sample of %d rows, stats %+v", len(s), tb.Stats())
			}
			loadRows(tb, 6000)
			if kind != PrimaryHeap {
				tb.ConvertPrimary(nil, kind, nil)
			}
			rows, uids := tb.AllRows(nil)
			var dead []Match
			for i, r := range rows {
				if r[0].Int()%7 == 0 {
					dead = append(dead, Match{Row: r, UID: uids[i]})
				}
			}
			tb.Delete(nil, dead)
			for i := 0; i < 300; i++ {
				tb.Insert(nil, value.Row{value.NewInt(int64(100_000 + i)), value.NewInt(1), value.NewString("new")})
			}
			if x := tb.CCI(); x != nil && (x.DeletedBitmapRows() == 0 || x.DeltaRows() == 0) {
				t.Fatalf("columnstore holds %d bitmap-deleted and %d delta rows; want both", x.DeletedBitmapRows(), x.DeltaRows())
			}
			// Under the target and at it, the sample is the table.
			for _, more := range []int{0, sampleRows - len(ids(tb))} {
				loadMore(tb, more)
				live := ids(tb)
				if got := sampleIDs(t, sample()); !slices.Equal(got, live) {
					t.Errorf("%d live rows: sample of %d rows is not the table", len(live), len(got))
				}
				if s := tb.Stats(); s.Fraction != 1 || len(s.Sample) != len(live) || tb.Stats() != s {
					t.Errorf("%d live rows: stats hold %d rows at fraction %v", len(live), len(s.Sample), s.Fraction)
				}
			}

			loadMore(tb, 10_000)
			live := ids(tb)
			got := sample()
			in := map[int64]bool{}
			for _, id := range sampleIDs(t, got) {
				in[id] = true
				if _, ok := slices.BinarySearch(live, id); !ok {
					t.Fatalf("sampled row %d is not live", id)
				}
			}
			var blocks []func([]value.Row) []value.Row
			switch kind {
			case PrimaryHeap:
				blocks = tb.Heap().SampleBlocks()
			case PrimaryBTree:
				blocks = tb.Clustered().SampleBlocks()
			default:
				blocks = tb.CCI().SampleBlocks()
			}
			maxBlock := 0
			for bi, read := range blocks {
				block := read(nil)
				maxBlock = max(maxBlock, len(block))
				n := 0
				for _, r := range block {
					if in[r[0].Int()] {
						n++
					}
				}
				if n != 0 && n != len(block) {
					t.Errorf("block %d: %d of its %d rows sampled", bi, n, len(block))
				}
			}
			if len(got) < sampleRows || len(got) >= sampleRows+maxBlock {
				t.Errorf("sample of %d rows of %d for a target of %d (largest block %d rows)", len(got), len(live), sampleRows, maxBlock)
			}
			same := func(a, b value.Row) bool { return a[0] == b[0] }
			if !slices.EqualFunc(got, sample(), same) || !slices.EqualFunc(got, tb.Stats().Sample, same) {
				t.Error("another sample of the same table differs")
			}
			if s := tb.Stats(); s.Fraction != float64(len(got))/float64(len(live)) {
				t.Errorf("fraction %v for %d of %d rows", s.Fraction, len(got), len(live))
			}
		})
	}
}

// loadMore bulk-loads n more rows with fresh ids.
func loadMore(tb *Table, n int) {
	rows := make([]value.Row, n)
	for i := range rows {
		rows[i] = value.Row{value.NewInt(int64(200_000 + tb.nextUID + int64(i))), value.NewInt(int64(i % 13)), value.NewString("more")}
	}
	tb.BulkLoad(nil, rows)
}

// sampleIDs returns the sorted ids of sample rows, failing on a
// duplicate or on a row wider than the table.
func sampleIDs(t *testing.T, sample []value.Row) []int64 {
	t.Helper()
	out := make([]int64, len(sample))
	for i, r := range sample {
		if len(r) != 3 {
			t.Fatalf("sample row of %d columns", len(r))
		}
		out[i] = r[0].Int()
	}
	slices.Sort(out)
	for i := 1; i < len(out); i++ {
		if out[i] == out[i-1] {
			t.Fatalf("row %d sampled twice", out[i])
		}
	}
	return out
}

func TestConvertPrimaryPreservesSecondaries(t *testing.T) {
	tb := newTestTable(t)
	loadRows(tb, 500)
	sec := tb.AddSecondaryBTree(nil, "ix", []int{1}, nil)
	tb.ConvertPrimary(nil, PrimaryColumnstore, nil)
	if sec.Tree.Count() != 500 {
		t.Errorf("secondary lost rows: %d", sec.Tree.Count())
	}
	checkIDs(t, tb, wantRange(500, nil))
	tb.ConvertPrimary(nil, PrimaryHeap, nil)
	checkIDs(t, tb, wantRange(500, nil))
}

func TestPrimaryBytes(t *testing.T) {
	tb := newTestTable(t)
	loadRows(tb, 5000)
	heapB := tb.PrimaryBytes()
	tb.ConvertPrimary(nil, PrimaryBTree, []int{0})
	btB := tb.PrimaryBytes()
	tb.ConvertPrimary(nil, PrimaryColumnstore, nil)
	cciB := tb.PrimaryBytes()
	if heapB == 0 || btB == 0 || cciB == 0 {
		t.Fatalf("sizes: heap=%d bt=%d cci=%d", heapB, btB, cciB)
	}
	if cciB >= btB {
		t.Errorf("columnstore %d should compress below b+tree %d", cciB, btB)
	}
}

// TestReplacedStructuresReturnPages: every structure the table replaces
// (a delta store or delete buffer swapped by compaction, a converted
// primary) or drops (a secondary index) must hand its pages back, so the
// store holds exactly the live structures' bytes.
func TestReplacedStructuresReturnPages(t *testing.T) {
	tb := newTestTable(t)
	tb.ConvertPrimary(nil, PrimaryBTree, []int{0})
	csi := tb.AddSecondaryCSI(nil, "csi_all").CSI
	tb.AddSecondaryBTree(nil, "ix_v", []int{1}, nil)
	bt := tb.FindSecondary("ix_v").Tree
	check := func(when string, want int64) {
		t.Helper()
		if got := tb.Store().TotalBytes(); got != want {
			t.Fatalf("%s: store holds %d bytes, live structures %d", when, got, want)
		}
	}

	// 20 inline compactions, each replacing the delta store.
	for i := 0; i < 20*1024; i++ {
		tb.Insert(nil, value.Row{value.NewInt(int64(i)), value.NewInt(int64(i % 13)), value.NewString("row")})
	}
	if csi.InlineCompactions() != 20 || csi.DeltaRows() != 0 {
		t.Fatalf("inline compactions = %d, delta rows = %d", csi.InlineCompactions(), csi.DeltaRows())
	}
	check("after inline compactions", tb.PrimaryBytes()+csi.Bytes()+bt.Bytes())

	// Buffered deletes folded by TupleMove replace the delete buffer; the
	// bitmaps they become are index bytes but not store pages.
	rows, uids := tb.AllRows(nil)
	tb.Delete(nil, []Match{{Row: rows[0], UID: uids[0]}, {Row: rows[5000], UID: uids[5000]}})
	tb.TupleMove(nil)
	bitmaps := int64(2 * 1024 / 8)
	check("after fold", tb.PrimaryBytes()+csi.Bytes()-bitmaps+bt.Bytes())

	tb.DropSecondary("csi_all")
	check("after dropping the columnstore", tb.PrimaryBytes()+bt.Bytes())
	if !tb.DropSecondary("ix_v") || tb.FindSecondary("ix_v") != nil {
		t.Fatal("drop failed")
	}
	if tb.DropSecondary("ix_v") {
		t.Fatal("double drop succeeded")
	}
	check("after dropping the B+ tree index", tb.PrimaryBytes())
	for _, kind := range []PrimaryKind{PrimaryColumnstore, PrimaryHeap, PrimaryBTree} {
		tb.ConvertPrimary(nil, kind, []int{0})
		check("after converting to "+kind.String(), tb.PrimaryBytes())
	}
}
