package colstore

import (
	"testing"

	"hybriddb/internal/value"
)

// TestScanPartitionsCoverIndex checks the morsel contract the parallel
// executor relies on: per-rowgroup partitions plus the delta partition,
// concatenated in order, reproduce a full serial scan exactly — same
// rows, same order, same batch boundaries per group.
func TestScanPartitionsCoverIndex(t *testing.T) {
	x, _ := buildInts(t, 10000, 2048, false)
	for i := 0; i < 100; i++ {
		x.Insert(nil, value.Row{value.NewInt(int64(1000000 + i))})
	}
	// Bitmap-delete a slice of rows; partitioned scans must honor it.
	sc := x.NewScanner(nil, ScanSpec{PruneCol: -1})
	for sc.Next() {
		b := sc.Batch()
		ls := sc.Locators()
		for i := 0; i < b.Len(); i++ {
			if v := b.Row(i)[0].Int(); v >= 3000 && v < 3050 {
				x.DeleteAt(nil, ls[i])
			}
		}
	}
	if !x.Partitionable() {
		t.Fatal("index with bitmap deletes should be partitionable")
	}

	full := x.ScanRows(nil, nil)

	var parts []value.Row
	scanPart := func(p ScanPartition) {
		psc := x.NewScanner(nil, ScanSpec{PruneCol: -1, Partition: &p})
		for psc.Next() {
			b := psc.Batch()
			for i := 0; i < b.Len(); i++ {
				parts = append(parts, value.Row{b.Row(i)[0]})
			}
		}
	}
	for g := 0; g < x.Groups(); g++ {
		scanPart(ScanPartition{GroupLo: g, GroupHi: g + 1})
	}
	scanPart(ScanPartition{GroupLo: x.Groups(), GroupHi: x.Groups(), Delta: true})

	if len(parts) != len(full) {
		t.Fatalf("partitioned scan rows = %d, full scan = %d", len(parts), len(full))
	}
	for i := range full {
		if value.Compare(parts[i][0], full[i][0]) != 0 {
			t.Fatalf("row %d: partitioned %v, full %v", i, parts[i][0], full[i][0])
		}
	}

	// A partition without Delta must not see delta rows.
	psc := x.NewScanner(nil, ScanSpec{PruneCol: -1, Partition: &ScanPartition{GroupLo: 0, GroupHi: x.Groups()}})
	n := 0
	for psc.Next() {
		n += psc.Batch().Len()
	}
	if want := len(full) - 100; n != want {
		t.Fatalf("compressed-only partition rows = %d, want %d", n, want)
	}

	// Segment elimination still applies inside a partition.
	esc := x.NewScanner(nil, ScanSpec{
		PruneCol: 0, Lo: value.NewInt(0), Hi: value.NewInt(100),
		Partition: &ScanPartition{GroupLo: 0, GroupHi: x.Groups()},
	})
	for esc.Next() {
	}
	if esc.GroupsEliminated == 0 {
		t.Error("no rowgroups eliminated inside partition")
	}

	// A pending delete buffer forbids partitioning (the anti-semi
	// multiset is destructive and cannot be split).
	y := secondaryIndex(t, 5000)
	y.BufferDelete(nil, value.Row{value.NewInt(100)})
	if y.Partitionable() {
		t.Error("index with buffered deletes must not be partitionable")
	}
	y.TupleMove(nil)
	if !y.Partitionable() {
		t.Error("tuple-move should restore partitionability")
	}
}
