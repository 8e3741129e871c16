package exec

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"hybriddb/internal/value"
	"hybriddb/internal/vec"
)

// TestJoinTableMatchesBruteForce builds the hash join's keyTable over
// random three-column keys — BIGINT, VARCHAR, and a BIGINT build column
// against a DOUBLE probe column compared as DOUBLE — at 1 to 8
// partitions, and checks every probe's matches, in order, against a
// scan of the build rows: NULL matches nothing, −0.0 matches 0, and
// the candidates come back in build-input order. The key ranges are
// small against the row count, so chains hold duplicates and distinct
// keys share buckets.
func TestJoinTableMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	kinds := []value.Kind{value.KindInt, value.KindString, value.KindFloat}
	orNull := func(v value.Value) value.Value {
		if rng.Intn(12) == 0 {
			return value.Null
		}
		return v
	}
	// Build columns: the three keys, then the build row number.
	build := vec.NewBatch([]value.Kind{value.KindInt, value.KindString, value.KindInt, value.KindInt})
	for i := 0; i < 700; i++ {
		build.AppendRow(value.Row{orNull(value.NewInt(rng.Int63n(9))), orNull(value.NewString(string(rune('a' + rng.Intn(4))))),
			orNull(value.NewInt(rng.Int63n(3))), value.NewInt(int64(i))})
	}
	probe := vec.NewBatch([]value.Kind{value.KindInt, value.KindString, value.KindFloat})
	for i := 0; i < 300; i++ {
		f := float64(rng.Intn(4))
		if f == 0 && rng.Intn(2) == 0 {
			f = math.Copysign(0, -1)
		}
		probe.AppendRow(value.Row{orNull(value.NewInt(rng.Int63n(10))), orNull(value.NewString(string(rune('a' + rng.Intn(5))))),
			orNull(value.NewFloat(f))})
	}
	sb := &SlotBatch{B: build, Slots: []int{0, 1, 2, 3}}
	bkeys, pkeys := build.Cols[:3], probe.Cols

	want := func(q int) []int64 {
		var ids []int64
		for i := 0; i < build.Len(); i++ {
			if value.Compare(build.Cols[0].Value(i), probe.Cols[0].Value(q)) == 0 &&
				value.Compare(build.Cols[1].Value(i), probe.Cols[1].Value(q)) == 0 &&
				value.Compare(build.Cols[2].Value(i), probe.Cols[2].Value(q)) == 0 &&
				!anyNull(bkeys, i) && !anyNull(pkeys, q) {
				ids = append(ids, int64(i))
			}
		}
		return ids
	}
	matched := 0
	for nParts := 1; nParts <= 8; nParts++ {
		parts := make([]*joinPart, nParts)
		shared := 0 // buckets whose chain holds two distinct keys
		for pi := range parts {
			pt := &joinPart{store: vec.NewBatch([]value.Kind{value.KindInt, value.KindString, value.KindInt, value.KindInt}).Cols}
			pt.keys, pt.kinds = pt.store[:3], kinds
			pt.fill(sb, bkeys, []int{0, 1, 2, 3}, pi, nParts)
			pt.link()
			for _, first := range pt.head {
				for idx := first; idx >= 0; idx = pt.next[idx] {
					if !keysEqual(pt.keys, int(first), pt.keys, int(idx), kinds) {
						shared++
						break
					}
				}
			}
			parts[pi] = pt
		}
		if shared == 0 {
			t.Errorf("%d partitions: no bucket holds two distinct keys", nParts)
		}
		for q := 0; q < probe.Len(); q++ {
			var got []int64
			if !anyNull(pkeys, q) {
				h := keyHash(pkeys, kinds, q)
				pt := parts[h%uint64(nParts)]
				for idx := pt.head[h>>pt.shift]; idx >= 0; idx = pt.next[idx] {
					if keysEqual(pt.keys, int(idx), pkeys, q, kinds) {
						got = append(got, pt.store[3].I[idx])
					}
				}
			}
			if w := want(q); !slices.Equal(got, w) {
				t.Fatalf("%d partitions, probe %d %v: matches %v, want %v", nParts, q, probe.Row(q), got, w)
			}
			matched += len(got)
		}
	}
	if matched == 0 {
		t.Fatal("no probe matched")
	}
}

// TestKeyTableGroupsMatchBruteForce inserts random two-column keys — a
// DOUBLE holding NULL, −0.0 and +0.0, and a VARCHAR holding NULL and
// the empty string — through find and insert, across several doublings
// of the buckets, and checks the grouping against value.Compare: every
// distinct key gets exactly one id, ids are dense in first-seen order,
// and each id still finds its first row's key after every relink. A
// table with no key columns holds one group.
func TestKeyTableGroupsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	kinds := []value.Kind{value.KindFloat, value.KindString}
	in := vec.NewBatch(kinds)
	for i := 0; i < 5000; i++ {
		var f, s value.Value
		switch r := rng.Intn(300); {
		case r == 0:
			f = value.Null
		case r < 3:
			f = value.NewFloat(math.Copysign(0, float64(r-2)))
		default:
			f = value.NewFloat(float64(r) / 2)
		}
		switch r := rng.Intn(10); r {
		case 0:
			s = value.Null
		case 1:
			s = value.NewString("")
		default:
			s = value.NewString(string(rune('a' + r)))
		}
		in.AppendRow(value.Row{f, s})
	}
	// NULL positions carry leftover payloads, as decoded vectors may; a
	// NULL must still meet every other NULL.
	for p := 0; p < in.Len(); p++ {
		if in.Cols[0].IsNull(p) {
			in.Cols[0].F[p] = float64(p)
		}
		if in.Cols[1].IsNull(p) {
			in.Cols[1].S[p] = string(rune('A' + p%26))
		}
	}
	same := func(i, j int) bool {
		return value.Compare(in.Cols[0].Value(i), in.Cols[0].Value(j)) == 0 &&
			value.Compare(in.Cols[1].Value(i), in.Cols[1].Value(j)) == 0
	}
	tab := newKeyTable(kinds)
	var firstRow []int // per id: the input row that added it
	relinks := 0
	for p := 0; p < in.Len(); p++ {
		id, h := tab.find(in.Cols, p)
		if id < 0 {
			buckets := len(tab.head)
			if id = tab.insert(in.Cols, p, h); int(id) != len(firstRow) {
				t.Fatalf("row %d: new id %d, want %d", p, id, len(firstRow))
			}
			firstRow = append(firstRow, p)
			if len(tab.head) != buckets {
				relinks++
				for g, q := range firstRow {
					if got, _ := tab.find(in.Cols, q); int(got) != g {
						t.Fatalf("after the relink at %d groups, row %d finds %d, want %d", tab.n, q, got, g)
					}
				}
			}
		}
		if q := firstRow[id]; !same(p, q) {
			t.Fatalf("row %d %v grouped with row %d %v", p, in.Row(p), q, in.Row(q))
		}
		for g, q := range firstRow {
			if g != int(id) && same(p, q) {
				t.Fatalf("row %d %v is in group %d, but group %d holds the same key", p, in.Row(p), id, g)
			}
		}
	}
	if relinks < 5 {
		t.Fatalf("%d relinks, want several", relinks)
	}
	if tab.n != len(firstRow) || tab.n < 500 {
		t.Fatalf("%d groups, %d ids", tab.n, len(firstRow))
	}

	scalar := newKeyTable(nil)
	for p := 0; p < 10; p++ {
		if id, h := scalar.find(nil, p); id < 0 {
			scalar.insert(nil, p, h)
		} else if id != 0 {
			t.Fatalf("zero-column table: id %d", id)
		}
	}
	if scalar.n != 1 {
		t.Fatalf("zero-column table holds %d groups, want 1", scalar.n)
	}
}
