package colstore

import (
	"fmt"
	"testing"

	"hybriddb/internal/value"
)

// The compaction pin: one fixed DML script, run against a primary and a
// secondary index, whose physical outcome after a synchronous TupleMove
// is written down number by number. It uses only the index's public
// surface, so it runs unchanged across rewrites of the maintenance code
// and fails when one of them changes what compaction leaves behind.

const pinRowGroup = 16

// pinDriver applies the script's logical operations to one index and
// keeps the brute-force model of what must be live afterwards.
type pinDriver struct {
	t     *testing.T
	x     *Index
	model map[string]int
	vals  map[int64]int64 // live key -> current v
	ops   int
	// every, when > 0, runs one mover step (chunk rows) after each
	// every-th DML operation.
	every, chunk int
}

func newPinDriver(t *testing.T, primary bool) *pinDriver {
	return &pinDriver{
		t:     t,
		x:     moverTestIndex(primary, pinRowGroup),
		model: make(map[string]int),
		vals:  make(map[int64]int64),
	}
}

func (d *pinDriver) tick() {
	d.ops++
	if d.every > 0 && d.ops%d.every == 0 {
		moverStep(d.x, d.chunk)
	}
}

func (d *pinDriver) insert(k, v int64) {
	r := value.Row{value.NewInt(k), value.NewInt(v)}
	d.x.Insert(nil, r)
	d.model[rowKey(r)]++
	d.vals[k] = v
	d.tick()
}

// locate finds the live row with key k by scanning, as a primary-index
// delete must.
func (d *pinDriver) locate(k int64) Locator {
	sc := d.x.NewScanner(nil, ScanSpec{PruneCol: -1})
	for sc.Next() {
		b := sc.Batch()
		for i := 0; i < b.Len(); i++ {
			if b.Cols[0].Value(b.LiveIndex(i)).Int() == k {
				return sc.Locators()[i]
			}
		}
	}
	d.t.Fatalf("key %d not found", k)
	return Locator{}
}

func (d *pinDriver) remove(k int64) {
	if d.x.Primary() {
		if !d.x.DeleteAt(nil, d.locate(k)) {
			d.t.Fatalf("DeleteAt key %d failed", k)
		}
	} else {
		d.x.BufferDelete(nil, value.Row{value.NewInt(k)})
	}
	old := fmt.Sprintf("%d|%d", k, d.vals[k])
	if d.model[old]--; d.model[old] == 0 {
		delete(d.model, old)
	}
	delete(d.vals, k)
	d.tick()
}

// update is delete + insert, the columnstore update path.
func (d *pinDriver) update(k, v int64) {
	d.remove(k)
	d.insert(k, v)
}

// script is the fixed workload. The row updated twice gets a smaller
// value the second time (1 -> 10 -> 2), so a compaction that sorted both
// new versions into one rowgroup would put the newer first, where the
// buffered deletes would cancel it and leave the older one live.
func (d *pinDriver) script() {
	for k := int64(0); k < 40; k++ { // two rowgroup boundaries, 8 rows left in delta
		d.insert(k, k%4)
	}
	d.remove(3)  // compressed, first group
	d.remove(20) // compressed, second group
	d.remove(35) // delta-resident
	d.update(5, 10)
	d.update(5, 2)                    // its predecessor is delta-resident
	d.update(33, 12)                  // delta-resident, updated once
	for k := int64(40); k < 50; k++ { // a third boundary, crossed with deletes pending
		d.insert(k, k%4)
	}
	d.remove(41)
	d.remove(49)
}

type pinGroup struct {
	rows, deleted int
	bytes         int64
}

type pinLayout struct {
	groups          []pinGroup
	deltaRows       int64
	bufferedDeletes int
	bytes           int64
}

func layoutOf(x *Index) pinLayout {
	l := pinLayout{deltaRows: x.DeltaRows(), bufferedDeletes: x.BufferedDeletes(), bytes: x.Bytes()}
	for gi := 0; gi < x.Groups(); gi++ {
		s := x.GroupStat(gi)
		l.groups = append(l.groups, pinGroup{s.Rows, s.Deleted, s.Bytes})
	}
	return l
}

func (l pinLayout) String() string {
	return fmt.Sprintf("groups=%v delta=%d buffered=%d bytes=%d", l.groups, l.deltaRows, l.bufferedDeletes, l.bytes)
}

// TestCompactionLayoutPin runs the script with synchronous compaction
// (inline at each rowgroup boundary, then one TupleMove) and compares
// the resulting physical layout with the recorded one.
func TestCompactionLayoutPin(t *testing.T) {
	want := map[bool]pinLayout{
		true: {
			groups:    []pinGroup{{16, 2, 140}, {16, 1, 140}, {16, 1, 148}, {1, 0, 128}},
			deltaRows: 0, bufferedDeletes: 0, bytes: 612,
		},
		false: {
			groups:    []pinGroup{{16, 2, 140}, {16, 1, 140}, {13, 1, 145}, {4, 0, 130}},
			deltaRows: 0, bufferedDeletes: 0, bytes: 643,
		},
	}
	for _, primary := range []bool{true, false} {
		t.Run(map[bool]string{true: "primary", false: "secondary"}[primary], func(t *testing.T) {
			d := newPinDriver(t, primary)
			d.script()
			checkOracle(t, d.x, d.model, "before TupleMove")
			d.x.TupleMove(nil)
			checkOracle(t, d.x, d.model, "after TupleMove")
			if got := layoutOf(d.x); got.String() != want[primary].String() {
				t.Fatalf("layout after TupleMove:\n got  %v\n want %v", got, want[primary])
			}
			// A second TupleMove has nothing to do.
			d.x.TupleMove(nil)
			if got := layoutOf(d.x); got.String() != want[primary].String() {
				t.Fatalf("layout after idle TupleMove:\n got  %v\n want %v", got, want[primary])
			}
		})
	}
}

// TestCompactionPinUnderMoverSteps drives the same script with the
// inline path switched off and single mover steps interleaved with the
// DML, then drains: the live multiset must be the one the synchronous
// run produces.
func TestCompactionPinUnderMoverSteps(t *testing.T) {
	for _, primary := range []bool{true, false} {
		for _, every := range []int{3, 7, 20} {
			t.Run(fmt.Sprintf("%s/every%d", map[bool]string{true: "primary", false: "secondary"}[primary], every), func(t *testing.T) {
				d := newPinDriver(t, primary)
				d.x.SetHighWater(func() {})
				d.every, d.chunk = every, pinRowGroup
				d.script()
				checkOracle(t, d.x, d.model, "before drain")
				for moverStep(d.x, pinRowGroup) {
					checkOracle(t, d.x, d.model, "during drain")
				}
				if d.x.DeltaRows() != 0 || d.x.BufferedDeletes() != 0 {
					t.Fatalf("drain left delta=%d buffered=%d", d.x.DeltaRows(), d.x.BufferedDeletes())
				}
				if d.x.InlineCompactions() != 0 {
					t.Fatalf("inline compactions = %d with the high-water callback attached", d.x.InlineCompactions())
				}
			})
		}
	}
}
