package exec

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"hybriddb/internal/plan"
	"hybriddb/internal/value"
	"hybriddb/internal/vec"
)

// TestJoinTableMatchesBruteForce builds the hash join's table over
// random three-column keys — BIGINT, VARCHAR, and a BIGINT build column
// against a DOUBLE probe column compared as DOUBLE — at 1 to 8
// partitions, and checks every probe's matches, in order, against a
// scan of the build rows: NULL matches nothing, −0.0 matches 0, and
// the candidates come back in build-input order. The key ranges are
// small against the row count, so chains hold duplicates and distinct
// keys share buckets.
func TestJoinTableMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	jk := []plan.JoinKey{{Kind: value.KindInt}, {Kind: value.KindString}, {Kind: value.KindFloat}}
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
			pt.keys = pt.store[:3]
			pt.fill(sb, bkeys, []int{0, 1, 2, 3}, jk, pi, nParts)
			pt.link(jk)
			for _, first := range pt.head {
				for idx := first; idx >= 0; idx = pt.next[idx] {
					if !keysEqual(pt.keys, int(first), pt.keys, int(idx), jk) {
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
				h := keyHash(pkeys, jk, q)
				pt := parts[h%uint64(nParts)]
				for idx := pt.head[h>>pt.shift]; idx >= 0; idx = pt.next[idx] {
					if keysEqual(pt.keys, int(idx), pkeys, q, jk) {
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
