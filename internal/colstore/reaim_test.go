package colstore

import (
	"fmt"
	"reflect"
	"testing"

	"hybriddb/internal/storage"
	"hybriddb/internal/value"
)

// scanPass is everything one aim of a scanner yields: each batch's live
// rows and locators, and the stats at the end.
type scanPass struct {
	batches [][]value.Row
	locs    [][]Locator
	stats   ScanStats
}

func drainPass(sc *Scanner) scanPass {
	var p scanPass
	for sc.Next() {
		b := sc.Batch()
		rows := make([]value.Row, b.Len())
		for i := range rows {
			rows[i] = b.Row(i)
		}
		p.batches = append(p.batches, rows)
		p.locs = append(p.locs, append([]Locator(nil), sc.Locators()...))
	}
	p.stats = sc.ScanStats
	return p
}

// reaimIndex is a secondary index (k, v, s) keyed on k with 1024-row
// rowgroups. v is NULL on every seventh row of groups 2 and 4 only, so
// a scan meets NULLs in a group after groups that have none, and
// NULL-free groups after ones that have them.
func reaimIndex() *Index {
	sch := value.NewSchema(
		value.Column{Name: "k", Kind: value.KindInt},
		value.Column{Name: "v", Kind: value.KindInt},
		value.Column{Name: "s", Kind: value.KindString},
	)
	rows := make([]value.Row, 6*1024)
	for i := range rows {
		v := value.NewInt(int64(i % 50))
		if g := i / 1024; (g == 2 || g == 4) && i%7 == 0 {
			v = value.Null
		}
		rows[i] = value.Row{value.NewInt(int64(i)), v, value.NewString(fmt.Sprintf("s%d", i%5))}
	}
	return Build(storage.NewStore(0), Config{Schema: sch, KeyOrdinals: []int{0}, RowGroupSize: 1024}, rows, nil)
}

// TestReaimMatchesFresh checks the contract one scanner per worker
// rests on: a scanner re-aimed at a partition yields the batches,
// locators and stats a fresh scanner on that partition yields — on the
// kernel path, the non-pushable fallback, with bitmap deletes, delta
// rows and a pending delete buffer.
func TestReaimMatchesFresh(t *testing.T) {
	x := reaimIndex()
	// Bitmap-delete every eleventh row of group 3, then add delta rows
	// (one with a NULL v).
	sc := x.NewScanner(nil, ScanSpec{PruneCol: -1, Partition: &ScanPartition{GroupLo: 3, GroupHi: 4}})
	var dead []Locator
	for sc.Next() {
		for i, l := range sc.Locators() {
			if sc.Batch().Row(i)[0].Int()%11 == 0 {
				dead = append(dead, l)
			}
		}
	}
	for _, l := range dead {
		x.DeleteAt(nil, l)
	}
	for i := 0; i < 300; i++ {
		v := value.NewInt(int64(i % 50))
		if i == 17 {
			v = value.Null
		}
		x.Insert(nil, value.Row{value.NewInt(int64(100000 + i)), v, value.NewString("d")})
	}

	specs := map[string]ScanSpec{
		"plain":       {PruneCol: -1},
		"kernel":      {Cols: []int{1, 2}, PruneCol: -1, Preds: []Pred{{Col: 1, Op: PredLT, Val: value.NewInt(20)}}},
		"kernel_two":  {Cols: []int{2}, PruneCol: -1, Preds: []Pred{{Col: 1, Op: PredGE, Val: value.NewInt(5)}, {Col: 2, Op: PredNE, Val: value.NewString("s3")}}},
		"fallback":    {Cols: []int{0, 1}, PruneCol: -1, Preds: []Pred{{Col: 1, Op: PredLT, Val: value.NewFloat(20.5)}}},
		"pruned":      {Cols: []int{0}, PruneCol: 0, Lo: value.NewInt(2000), Hi: value.NewInt(4500)},
		"kernel_null": {Cols: []int{0, 1}, PruneCol: -1, Preds: []Pred{{Col: 1, Op: PredNE, Val: value.NewInt(3)}}},
	}
	parts := []*ScanPartition{nil}
	for g := 0; g < x.Groups(); g++ {
		parts = append(parts, &ScanPartition{GroupLo: g, GroupHi: g + 1})
	}
	parts = append(parts,
		&ScanPartition{GroupLo: x.Groups(), GroupHi: x.Groups(), Delta: true},
		&ScanPartition{GroupLo: 1, GroupHi: 5},
		&ScanPartition{GroupLo: 0, GroupHi: 2})

	check := func(state string) {
		for name, spec := range specs {
			var re *Scanner
			for pi, part := range parts {
				fspec := spec
				fspec.Partition = part
				want := drainPass(x.NewScanner(nil, fspec))
				if re == nil {
					re = x.NewScanner(nil, fspec)
				} else {
					re.Reaim(part)
				}
				got := drainPass(re)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s/%s: partition %d (%+v): re-aimed scanner diverges from a fresh one\n got stats %+v, %d batches\nwant stats %+v, %d batches",
						state, name, pi, part, got.stats, len(got.batches), want.stats, len(want.batches))
				}
			}
		}
	}
	check("bitmap+delta")
	if sc := x.NewScanner(nil, specs["kernel"]); drainPass(sc).stats.KernelBatches == 0 {
		t.Fatal("kernel spec never ran the kernels")
	}

	// A pending delete buffer (none of its keys already bitmap-deleted):
	// every pass consumes its own copy.
	for k := int64(2); k < 6*1024; k += 97 {
		if k%11 != 0 {
			x.BufferDelete(nil, value.Row{value.NewInt(k)})
		}
	}
	x.BufferDelete(nil, value.Row{value.NewInt(100005)})
	if x.BufferedDeletes() == 0 {
		t.Fatal("delete buffer is empty")
	}
	check("delete-buffer")

	// And the buffer's arrival or departure between two aims changes
	// the decoded layout: the re-aimed scanner must follow it.
	re := x.NewScanner(nil, specs["kernel"])
	drainPass(re)
	x.TupleMove(nil)
	if x.BufferedDeletes() != 0 {
		t.Fatalf("tuple move left %d buffered deletes", x.BufferedDeletes())
	}
	re.Reaim(nil)
	if got, want := drainPass(re), drainPass(x.NewScanner(nil, specs["kernel"])); !reflect.DeepEqual(got, want) {
		t.Fatalf("re-aimed after the buffer drained: stats %+v, want %+v", got.stats, want.stats)
	}
}
