package colstore

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"hybriddb/internal/storage"
	"hybriddb/internal/value"
	"hybriddb/internal/vclock"
)

func moverTestIndex(primary bool, rowGroup int) *Index {
	st := storage.NewStore(0)
	sch := value.NewSchema(
		value.Column{Name: "k", Kind: value.KindInt},
		value.Column{Name: "v", Kind: value.KindInt},
	)
	cfg := Config{Schema: sch, Primary: primary, RowGroupSize: rowGroup}
	if !primary {
		cfg.KeyOrdinals = []int{0}
	}
	return Build(st, cfg, nil, nil)
}

func rowKey(r value.Row) string {
	return fmt.Sprintf("%d|%d", r[0].Int(), r[1].Int())
}

// sortedKeys materializes the index's live rows as a sorted multiset,
// the oracle representation for no-drop/no-dup checks.
func sortedKeys(x *Index) []string {
	rows := x.ScanRows(nil, nil)
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = rowKey(r)
	}
	sort.Strings(keys)
	return keys
}

func wantKeys(model map[string]int) []string {
	var keys []string
	for k, c := range model {
		for i := 0; i < c; i++ {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

func checkOracle(t *testing.T, x *Index, model map[string]int, when string) {
	t.Helper()
	got, want := sortedKeys(x), wantKeys(model)
	if len(got) != len(want) {
		t.Fatalf("%s: %d live rows, want %d", when, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: row multiset diverged at %d: got %s want %s", when, i, got[i], want[i])
		}
	}
	if x.Rows() != int64(len(want)) {
		t.Fatalf("%s: Rows() = %d, want %d", when, x.Rows(), len(want))
	}
}

// moverStep runs one engine mover cycle against a single index: the
// production policy (NextStep, with no minimum move size) names the
// step, the test plans, encodes and installs it with nothing in
// between. Returns false when no work remains.
func moverStep(x *Index, chunk int) bool {
	ok := true
	switch step, gi := x.NextStep(1); step {
	case StepNone:
		return false
	case StepFold:
		ok = x.InstallFold(x.PlanFold(nil), nil)
	case StepMove:
		snap := x.SnapshotDelta(chunk, nil)
		ok = x.InstallMove(snap, x.EncodeRows(snap.Rows, nil), nil)
	case StepRebuild:
		p := x.PlanRebuild(gi, nil)
		ok = x.InstallRebuild(p, x.EncodeRows(p.Rows, nil), nil)
	}
	if !ok {
		panic("serial install of a mover step aborted")
	}
	return true
}

// TestMoverOracleNoDropNoDup interleaves random DML with incremental
// mover steps and checks after every install that the live row multiset
// matches a brute-force model: compaction must never drop or duplicate
// a row.
func TestMoverOracleNoDropNoDup(t *testing.T) {
	for _, primary := range []bool{true, false} {
		t.Run(map[bool]string{true: "primary", false: "secondary"}[primary], func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			x := moverTestIndex(primary, 64)
			x.SetHighWater(func() {}) // exercise backlog beyond the rowgroup size
			model := make(map[string]int)
			var locs []Locator // delta/compressed locators for primary deletes
			var rows []value.Row
			nextKey := int64(0)

			insert := func() {
				r := value.Row{value.NewInt(nextKey), value.NewInt(rng.Int63n(100))}
				nextKey++
				loc := x.Insert(nil, r)
				model[rowKey(r)]++
				locs = append(locs, loc)
				rows = append(rows, r)
			}
			remove := func() {
				if len(rows) == 0 {
					return
				}
				i := rng.Intn(len(rows))
				r := rows[i]
				if primary {
					// Primary deletes address a physical locator; delta
					// locators go stale once moved, so find the row's
					// current position by scanning (the oracle can afford
					// it).
					sc := x.NewScanner(nil, ScanSpec{PruneCol: -1})
					var loc Locator
					found := false
					for sc.Next() && !found {
						b := sc.Batch()
						for bi := 0; bi < b.Len(); bi++ {
							p := b.LiveIndex(bi)
							if b.Cols[0].Value(p).Int() == r[0].Int() {
								loc = sc.Locators()[bi]
								found = true
								break
							}
						}
					}
					if !found {
						t.Fatalf("row %s not found for delete", rowKey(r))
					}
					if !x.DeleteAt(nil, loc) {
						t.Fatalf("DeleteAt(%v) failed", loc)
					}
				} else {
					x.BufferDelete(nil, value.Row{r[0]})
				}
				model[rowKey(r)]--
				if model[rowKey(r)] == 0 {
					delete(model, rowKey(r))
				}
				rows = append(rows[:i], rows[i+1:]...)
				locs = append(locs[:i], locs[i+1:]...)
			}

			for step := 0; step < 600; step++ {
				switch {
				case rng.Intn(10) < 6:
					insert()
				case rng.Intn(10) < 8:
					remove()
				default:
					if moverStep(x, 16+rng.Intn(64)) {
						checkOracle(t, x, model, fmt.Sprintf("after mover step %d", step))
					}
				}
			}
			checkOracle(t, x, model, "before final drain")
			for moverStep(x, 48) {
				checkOracle(t, x, model, "during final drain")
			}
			if x.DeltaRows() != 0 {
				t.Fatalf("drain left %d delta rows", x.DeltaRows())
			}
			if !primary && x.Groups() > 0 && x.BufferedDeletes() > 0 {
				t.Fatalf("drain left %d buffered deletes with %d groups", x.BufferedDeletes(), x.Groups())
			}
		})
	}
}

// TestInstallMoveAbortsOnDeltaRemoval: removing a snapshotted delta row
// invalidates the snapshot; the install must refuse and leave the index
// untouched.
func TestInstallMoveAbortsOnDeltaRemoval(t *testing.T) {
	x := moverTestIndex(true, 1024)
	var locs []Locator
	for i := 0; i < 10; i++ {
		locs = append(locs, x.Insert(nil, value.Row{value.NewInt(int64(i)), value.NewInt(int64(i * 10))}))
	}
	snap := x.SnapshotDelta(0, nil)
	if snap == nil || len(snap.Rows) != 10 {
		t.Fatalf("snapshot = %v", snap)
	}
	groups := x.EncodeRows(snap.Rows, nil)
	if !x.DeleteAt(nil, locs[3]) {
		t.Fatal("DeleteAt failed")
	}
	if x.InstallMove(snap, groups, nil) {
		t.Fatal("install succeeded over an invalidated snapshot")
	}
	x.DiscardEncoded(groups)
	if x.Groups() != 0 || x.DeltaRows() != 9 || x.Rows() != 9 {
		t.Fatalf("aborted install changed state: groups=%d delta=%d rows=%d",
			x.Groups(), x.DeltaRows(), x.Rows())
	}
}

// TestInstallMoveSurvivesConcurrentAppends: inserts landing after the
// snapshot must not invalidate it — sustained writes cannot livelock
// the mover.
func TestInstallMoveSurvivesConcurrentAppends(t *testing.T) {
	x := moverTestIndex(true, 1024)
	for i := 0; i < 8; i++ {
		x.Insert(nil, value.Row{value.NewInt(int64(i)), value.NewInt(0)})
	}
	snap := x.SnapshotDelta(0, nil)
	groups := x.EncodeRows(snap.Rows, nil)
	for i := 8; i < 14; i++ {
		x.Insert(nil, value.Row{value.NewInt(int64(i)), value.NewInt(0)})
	}
	if !x.InstallMove(snap, groups, nil) {
		t.Fatal("install aborted despite append-only traffic")
	}
	if x.Groups() != 1 || x.DeltaRows() != 6 || x.Rows() != 14 {
		t.Fatalf("after install: groups=%d delta=%d rows=%d", x.Groups(), x.DeltaRows(), x.Rows())
	}
	if got := len(sortedKeys(x)); got != 14 {
		t.Fatalf("scan sees %d rows, want 14", got)
	}
}

// TestInstallFoldAbortsOnBufferChange: a delete buffered after the fold
// plan was taken invalidates it.
func TestInstallFoldAbortsOnBufferChange(t *testing.T) {
	x := moverTestIndex(false, 8)
	var rows []value.Row
	for i := 0; i < 8; i++ {
		rows = append(rows, value.Row{value.NewInt(int64(i)), value.NewInt(0)})
	}
	x.BulkInsert(nil, rows)
	if x.Groups() != 1 {
		t.Fatalf("groups = %d", x.Groups())
	}
	x.BufferDelete(nil, value.Row{value.NewInt(2)})
	p := x.PlanFold(nil)
	if p == nil || p.Consumed != 1 {
		t.Fatalf("fold plan = %+v", p)
	}
	x.BufferDelete(nil, value.Row{value.NewInt(5)})
	if x.InstallFold(p, nil) {
		t.Fatal("fold installed over a changed buffer")
	}
	if x.BufferedDeletes() != 2 || x.DeletedBitmapRows() != 0 {
		t.Fatalf("aborted fold changed state: buf=%d bitmap=%d",
			x.BufferedDeletes(), x.DeletedBitmapRows())
	}
	// A fresh plan folds both.
	p = x.PlanFold(nil)
	if p == nil || p.Consumed != 2 {
		t.Fatalf("second fold plan = %+v", p)
	}
	if !x.InstallFold(p, nil) {
		t.Fatal("second fold aborted")
	}
	if x.BufferedDeletes() != 0 || x.DeletedBitmapRows() != 2 || x.Rows() != 6 {
		t.Fatalf("after fold: buf=%d bitmap=%d rows=%d",
			x.BufferedDeletes(), x.DeletedBitmapRows(), x.Rows())
	}
}

// TestFoldReachesDelta: when every buffered delete targets a row still
// in the delta store, one fold removes those rows and empties the
// buffer, so the policy stops naming a fold and the move that follows
// compresses only live versions.
func TestFoldReachesDelta(t *testing.T) {
	x := moverTestIndex(false, 16)
	model := make(map[string]int)
	var rows []value.Row
	for i := 0; i < 16; i++ {
		rows = append(rows, value.Row{value.NewInt(int64(i)), value.NewInt(0)})
		model[rowKey(rows[i])]++
	}
	x.BulkInsert(nil, rows)
	for _, r := range []value.Row{
		{value.NewInt(100), value.NewInt(1)},
		{value.NewInt(101), value.NewInt(1)},
		{value.NewInt(102), value.NewInt(1)},
	} {
		x.Insert(nil, r)
		model[rowKey(r)]++
	}
	// Delete 101; update 100 twice, to a smaller value the second time.
	x.BufferDelete(nil, value.Row{value.NewInt(101)})
	delete(model, "101|1")
	for _, v := range []int64{9, 2} {
		x.BufferDelete(nil, value.Row{value.NewInt(100)})
		x.Insert(nil, value.Row{value.NewInt(100), value.NewInt(v)})
	}
	delete(model, "100|1")
	model["100|2"]++
	checkOracle(t, x, model, "before fold")
	if step, _ := x.NextStep(1); step != StepFold {
		t.Fatalf("NextStep = %d with %d buffered deletes, want StepFold", step, x.BufferedDeletes())
	}
	p := x.PlanFold(nil)
	if p == nil || p.Consumed != 3 {
		t.Fatalf("fold plan = %+v", p)
	}
	if !x.InstallFold(p, nil) {
		t.Fatal("fold aborted")
	}
	if x.BufferedDeletes() != 0 || x.DeltaRows() != 2 || x.DeletedBitmapRows() != 0 {
		t.Fatalf("after fold: buf=%d delta=%d bitmap=%d", x.BufferedDeletes(), x.DeltaRows(), x.DeletedBitmapRows())
	}
	checkOracle(t, x, model, "after fold")
	if step, _ := x.NextStep(1); step != StepMove {
		t.Fatalf("NextStep after fold = %d, want StepMove", step)
	}
	x.TupleMove(nil)
	checkOracle(t, x, model, "after TupleMove")
}

// TestRebuildShedsDeadRows: a rowgroup above the dead-row threshold is
// rebuilt dense, and a fully dead group disappears.
func TestRebuildShedsDeadRows(t *testing.T) {
	x := moverTestIndex(true, 8)
	var rows []value.Row
	for i := 0; i < 8; i++ {
		rows = append(rows, value.Row{value.NewInt(int64(i)), value.NewInt(int64(i))})
	}
	x.BulkInsert(nil, rows)
	for i := 0; i < 3; i++ {
		if !x.DeleteAt(nil, Locator{Group: 0, Row: int32(i)}) {
			t.Fatal("DeleteAt failed")
		}
	}
	if f := x.GroupDeadFraction(0); f != 3.0/8 {
		t.Fatalf("dead fraction = %v", f)
	}
	p := x.PlanRebuild(0, nil)
	if p == nil || len(p.Rows) != 5 {
		t.Fatalf("rebuild plan rows = %d", len(p.Rows))
	}
	groups := x.EncodeRows(p.Rows, nil)
	if !x.InstallRebuild(p, groups, nil) {
		t.Fatal("rebuild aborted")
	}
	if x.Groups() != 1 || x.DeletedBitmapRows() != 0 || x.Rows() != 5 {
		t.Fatalf("after rebuild: groups=%d bitmap=%d rows=%d",
			x.Groups(), x.DeletedBitmapRows(), x.Rows())
	}
	// Kill the rest: the group should vanish outright.
	for i := 0; i < 5; i++ {
		if !x.DeleteAt(nil, Locator{Group: 0, Row: int32(i)}) {
			t.Fatal("DeleteAt failed")
		}
	}
	p = x.PlanRebuild(0, nil)
	if !x.InstallRebuild(p, x.EncodeRows(p.Rows, nil), nil) {
		t.Fatal("empty rebuild aborted")
	}
	if x.Groups() != 0 || x.Rows() != 0 {
		t.Fatalf("after empty rebuild: groups=%d rows=%d", x.Groups(), x.Rows())
	}
}

// TestCompactionDebtAndScanTax: the debt model must be zero for a
// compacted index, grow with backlog, and clear after compaction.
func TestCompactionDebtAndScanTax(t *testing.T) {
	m := vclock.DefaultModel(vclock.DRAM)
	x := moverTestIndex(false, 64)
	var rows []value.Row
	for i := 0; i < 128; i++ {
		rows = append(rows, value.Row{value.NewInt(int64(i)), value.NewInt(0)})
	}
	x.BulkInsert(nil, rows)
	if d := x.CompactionDebt(m); d.ScanTax != 0 || d.Work != 0 {
		t.Fatalf("compacted index has debt %+v", d)
	}
	x.Insert(nil, value.Row{value.NewInt(1000), value.NewInt(0)})
	dDelta := x.CompactionDebt(m)
	if dDelta.ScanTax <= 0 || dDelta.DeltaRows != 1 {
		t.Fatalf("delta debt = %+v", dDelta)
	}
	x.BufferDelete(nil, value.Row{value.NewInt(7)})
	dBuf := x.CompactionDebt(m)
	if dBuf.ScanTax <= dDelta.ScanTax {
		t.Fatalf("buffered delete did not raise debt: %v -> %v", dDelta.ScanTax, dBuf.ScanTax)
	}
	// The delete-buffer cliff must dominate the single delta row: it
	// disables kernels for all 128 compressed rows.
	if dBuf.BufferedDeletes != 1 || dBuf.ScanTax < 2*dDelta.ScanTax {
		t.Fatalf("delete-buffer cliff not dominant: %+v vs delta %v", dBuf, dDelta.ScanTax)
	}
	x.TupleMove(nil)
	if d := x.CompactionDebt(m); d.DeltaRows != 0 || d.BufferedDeletes != 0 {
		t.Fatalf("debt after TupleMove = %+v", d)
	}
}

// TestInsertHighWaterSignal: with a high-water callback attached,
// Insert never compresses inline — it signals and returns, and the
// boundary insert is charged the same virtual cost as any other.
func TestInsertHighWaterSignal(t *testing.T) {
	m := vclock.DefaultModel(vclock.DRAM)
	x := moverTestIndex(true, 32)
	signals := 0
	x.SetHighWater(func() { signals++ })

	chargeOf := func(i int) vclock.Metrics {
		tr := vclock.NewTracker(m)
		x.Insert(tr, value.Row{value.NewInt(int64(i)), value.NewInt(0)})
		return tr.Snapshot()
	}
	mid := chargeOf(0)
	for i := 1; i < 31; i++ {
		chargeOf(i)
	}
	boundary := chargeOf(31) // 32nd row: crosses the rowgroup size
	if signals != 1 {
		t.Fatalf("signals = %d, want 1", signals)
	}
	if x.Groups() != 0 || x.DeltaRows() != 32 {
		t.Fatalf("high-water insert compacted: groups=%d delta=%d", x.Groups(), x.DeltaRows())
	}
	if x.InlineCompactions() != 0 {
		t.Fatalf("inline compactions = %d with high-water attached", x.InlineCompactions())
	}
	if boundary != mid {
		t.Fatalf("boundary insert charged %+v, mid-delta insert %+v — latency spike not removed", boundary, mid)
	}

	// Detaching restores the synchronous path.
	x.SetHighWater(nil)
	for i := 32; i < 64; i++ {
		x.Insert(nil, value.Row{value.NewInt(int64(i)), value.NewInt(0)})
	}
	if x.InlineCompactions() != 1 || x.Groups() == 0 {
		t.Fatalf("synchronous fallback: inline=%d groups=%d", x.InlineCompactions(), x.Groups())
	}
}

// TestBatchDeltaScanMatchesRowSet: the batched nextDelta fill must
// return exactly the delta rows, with locators aligned, including under
// a pending delete buffer (locator-compaction swap path).
func TestBatchDeltaScanMatchesRowSet(t *testing.T) {
	x := moverTestIndex(false, 1<<20)
	const n = 3000 // several batches worth
	for i := 0; i < n; i++ {
		x.Insert(nil, value.Row{value.NewInt(int64(i)), value.NewInt(int64(i % 7))})
	}
	for i := 0; i < n; i += 3 {
		x.BufferDelete(nil, value.Row{value.NewInt(int64(i))})
	}
	tr := vclock.NewTracker(vclock.DefaultModel(vclock.DRAM))
	sc := x.NewScanner(tr, ScanSpec{PruneCol: -1})
	seen := make(map[int64]bool)
	for sc.Next() {
		b := sc.Batch()
		locs := sc.Locators()
		if len(locs) != b.Len() {
			t.Fatalf("locators %d != batch %d", len(locs), b.Len())
		}
		for i := 0; i < b.Len(); i++ {
			k := b.Cols[0].Value(b.LiveIndex(i)).Int()
			if k%3 == 0 {
				t.Fatalf("deleted key %d surfaced", k)
			}
			if !locs[i].Delta {
				t.Fatalf("key %d has non-delta locator %v", k, locs[i])
			}
			if seen[k] {
				t.Fatalf("key %d duplicated", k)
			}
			seen[k] = true
		}
	}
	if want := n - n/3; len(seen) != want {
		t.Fatalf("scanned %d live delta rows, want %d", len(seen), want)
	}
	if sc.DeltaRowsScanned != n {
		t.Fatalf("DeltaRowsScanned = %d, want %d", sc.DeltaRowsScanned, n)
	}
	if sc.DeltaScanTax() <= 0 {
		t.Fatalf("DeltaScanTax = %v, want > 0", sc.DeltaScanTax())
	}
}

// TestFreeAbortsOutstandingPlans: a mover step planned before its index
// is dropped must abort at install instead of touching freed pages.
func TestFreeAbortsOutstandingPlans(t *testing.T) {
	x := moverTestIndex(false, 8)
	for i := 0; i < 12; i++ {
		x.Insert(nil, value.Row{value.NewInt(int64(i)), value.NewInt(0)})
	}
	x.BufferDelete(nil, value.Row{value.NewInt(2)})
	x.BufferDelete(nil, value.Row{value.NewInt(3)})
	x.TupleMove(nil) // groups of 8 and 4 rows; rows 2 and 3 dead in the first
	x.Insert(nil, value.Row{value.NewInt(100), value.NewInt(0)})
	x.BufferDelete(nil, value.Row{value.NewInt(5)})
	snap := x.SnapshotDelta(0, nil)
	encoded := x.EncodeRows(snap.Rows, nil)
	fold := x.PlanFold(nil)
	rebuild := x.PlanRebuild(0, nil)
	if snap == nil || fold == nil || rebuild == nil {
		t.Fatalf("plans: snap=%v fold=%v rebuild=%v", snap, fold, rebuild)
	}
	x.Free()
	if x.InstallMove(snap, encoded, nil) || x.InstallFold(fold, nil) || x.InstallRebuild(rebuild, nil, nil) {
		t.Fatal("an install succeeded on a freed index")
	}
	x.DiscardEncoded(encoded)
	if n := x.store.TotalBytes(); n != 0 {
		t.Fatalf("freed index left %d bytes in the store", n)
	}
}
