package colstore

import (
	"testing"
	"testing/quick"

	"hybriddb/internal/storage"
	"hybriddb/internal/value"
)

// TestSegmentRoundTripQuick: for arbitrary int64 slices (including
// extremes), compression must round-trip every position, through the
// reference decoder and into vectors, and report correct min/max.
func TestSegmentRoundTripQuick(t *testing.T) {
	f := func(vals []int64) bool {
		in := make([]value.Value, len(vals))
		var mn, mx int64
		for i, v := range vals {
			in[i] = value.NewInt(v)
			if i == 0 || v < mn {
				mn = v
			}
			if i == 0 || v > mx {
				mx = v
			}
		}
		s := buildSegment(value.KindInt, in)
		for i, v := range vals {
			if s.valueAt(i).Int() != v {
				return false
			}
		}
		checkDecoded(t, s, in)
		if len(vals) > 0 && (s.min.Int() != mn || s.max.Int() != mx) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestSegmentSizeNeverExceedsRawQuick: the chosen encoding must never
// be accounted larger than raw 8-byte storage plus bounded overhead.
func TestSegmentSizeNeverExceedsRawQuick(t *testing.T) {
	f := func(vals []int64) bool {
		in := make([]value.Value, len(vals))
		for i, v := range vals {
			in[i] = value.NewInt(v)
		}
		s := buildSegment(value.KindInt, in)
		raw := int64(len(vals))*8 + 128
		return s.bytes <= raw+int64(len(vals))*3 // RLE worst case ~10B/run with runs<=n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestDeltaScanSeesInsertsQuick: trickle inserts must be visible to
// scans in multiset terms regardless of batch boundaries.
func TestDeltaScanSeesInsertsQuick(t *testing.T) {
	sch := value.NewSchema(value.Column{Name: "col1", Kind: value.KindInt})
	f := func(vals []int16) bool {
		x := Build(storage.NewStore(0), Config{Schema: sch, Primary: true, RowGroupSize: 1024}, nil, nil)
		want := map[int64]int{}
		for _, v := range vals {
			x.Insert(nil, value.Row{value.NewInt(int64(v))})
			want[int64(v)]++
		}
		got := map[int64]int{}
		for _, r := range x.ScanRows(nil, nil) {
			got[r[0].Int()]++
		}
		if len(got) != len(want) {
			return false
		}
		for k, c := range want {
			if got[k] != c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
