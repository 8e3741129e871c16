package exec

import (
	"math"
	"math/bits"

	"hybriddb/internal/value"
	"hybriddb/internal/vec"
)

// keyTable is the executor's one hash table, under the hash join's
// build store and the hash aggregate's groups. Row i is position i of
// the key vectors; keyHash and keysEqual read each column in its kind,
// and head/next chain the rows of a bucket, the top bits of the key's
// hash. The join fills its store and links it once; the aggregate finds
// or inserts one key at a time and gets dense group ids.
type keyTable struct {
	keys  []*vec.Vec
	kinds []value.Kind
	n     int     // rows
	head  []int32 // per bucket: first row, -1 if none
	next  []int32 // per row: the next row of its bucket, -1 at the end
	shift uint
}

// newKeyTable returns an empty table on key columns of kinds. With no
// key columns it holds at most one row, which every key finds.
func newKeyTable(kinds []value.Kind) *keyTable {
	t := &keyTable{kinds: kinds}
	for _, k := range kinds {
		t.keys = append(t.keys, &vec.Vec{Kind: k})
	}
	t.link()
	return t
}

// link chains every row into its bucket, last row first, so chains run
// in insertion order, over more buckets than rows (join partitions
// route on the hash's low bits).
func (t *keyTable) link() {
	b := bits.Len(uint(t.n))
	t.shift = uint(64 - b)
	t.head = make([]int32, 1<<b)
	for i := range t.head {
		t.head[i] = -1
	}
	t.next = make([]int32, t.n)
	for i := t.n - 1; i >= 0; i-- {
		bk := keyHash(t.keys, t.kinds, i) >> t.shift
		t.next[i], t.head[bk] = t.head[bk], int32(i)
	}
}

// find returns the row whose key equals position p of keys, or -1, and
// the key's hash.
func (t *keyTable) find(keys []*vec.Vec, p int) (int32, uint64) {
	h := keyHash(keys, t.kinds, p)
	for id := t.head[h>>t.shift]; id >= 0; id = t.next[id] {
		if keysEqual(t.keys, int(id), keys, p, t.kinds) {
			return id, h
		}
	}
	return -1, h
}

// insert adds position p of keys, whose hash is h, as the next row and
// returns its id. When the rows reach the buckets, the buckets double.
func (t *keyTable) insert(keys []*vec.Vec, p int, h uint64) int32 {
	for k, v := range t.keys {
		v.AppendFrom(keys[k], p)
	}
	if t.n++; t.n < len(t.head) {
		bk := h >> t.shift
		t.next, t.head[bk] = append(t.next, t.head[bk]), int32(t.n-1)
	} else {
		t.link()
	}
	return int32(t.n - 1)
}

// keyWidth is the memory position p's key is charged: its widths.
func keyWidth(keys []*vec.Vec, p int) int {
	w := 0
	for _, v := range keys {
		w += v.ValueWidth(p)
	}
	return w
}

// mix is the splitmix64 finalizer. Raw payloads are scrambled through
// it so that sequential surrogate keys spread over buckets and
// partitions instead of striping.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// keyHash combines the hashes of position p's key columns, each read in
// its kind: an integer-backed payload as it is, a number widened to
// DOUBLE with −0.0 made +0.0, a string by its bytes (FNV-1a). Every NULL
// hashes alike.
func keyHash(keys []*vec.Vec, kinds []value.Kind, p int) uint64 {
	var h uint64
	for k, v := range keys {
		var x uint64
		switch {
		case v.IsNull(p):
			x = 0x9e3779b97f4a7c15
		case kinds[k] == value.KindFloat:
			x = math.Float64bits(floatAt(v, p) + 0) // −0.0 + 0 is +0.0
		case kinds[k] == value.KindString:
			x = 14695981039346656037
			for _, ch := range []byte(v.S[p]) {
				x = (x ^ uint64(ch)) * 1099511628211
			}
		default:
			x = uint64(v.I[p])
		}
		h = mix(h ^ x)
	}
	return h
}

// keysEqual reports whether row i of the key vectors a and position p
// of the key vectors b carry equal keys, each column compared in its
// kind: numbers by value (so −0.0 equals +0.0), strings by bytes, and
// NULL equal only to NULL. The join never compares a NULL key; GROUP BY
// keeps NULLs in one group.
func keysEqual(a []*vec.Vec, i int, b []*vec.Vec, p int, kinds []value.Kind) bool {
	for k, x := range a {
		y := b[k]
		if xn, yn := x.IsNull(i), y.IsNull(p); xn || yn {
			if xn != yn {
				return false
			}
			continue
		}
		switch kinds[k] {
		case value.KindFloat:
			if floatAt(x, i) != floatAt(y, p) {
				return false
			}
		case value.KindString:
			if x.S[i] != y.S[p] {
				return false
			}
		default:
			if x.I[i] != y.I[p] {
				return false
			}
		}
	}
	return true
}

// floatAt reads a numeric vector's position p widened to DOUBLE.
func floatAt(v *vec.Vec, p int) float64 {
	if v.Kind == value.KindFloat {
		return v.F[p]
	}
	return float64(v.I[p])
}

func anyNull(keys []*vec.Vec, p int) bool {
	for _, v := range keys {
		if v.IsNull(p) {
			return true
		}
	}
	return false
}

// ownKeys returns the vectors of a columnar batch that carry each of
// slots, or nil when the batch lacks one (a row-layout batch maps no
// slots).
func ownKeys(sb *SlotBatch, slots []int) []*vec.Vec {
	out := make([]*vec.Vec, len(slots))
	for k, slot := range slots {
		vi := slotVec(sb.Slots, slot)
		if vi < 0 {
			return nil
		}
		out[k] = sb.B.Cols[vi]
	}
	return out
}

// batchKeys returns the vectors holding sb's values of slots, and the
// batch they index. A columnar batch carrying every slot is keyed on its
// own vectors at its physical positions. Any other is taken as composite
// rows (a columnar one is materialized) and keyed at row i on copies in
// *buf, one vector per slot in kinds, reused batch to batch.
func batchKeys(sb *SlotBatch, slots []int, kinds []value.Kind, buf *[]*vec.Vec, totalSlots int) (*SlotBatch, []*vec.Vec) {
	if keys := ownKeys(sb, slots); keys != nil {
		return sb, keys
	}
	if sb.Rows == nil {
		sb = &SlotBatch{Rows: sb.materializeRows(totalSlots)}
	}
	if *buf == nil {
		for _, k := range kinds {
			*buf = append(*buf, vec.NewVec(k))
		}
	}
	for k, slot := range slots {
		v := (*buf)[k]
		v.Reset()
		for _, row := range sb.Rows {
			v.Append(row[slot])
		}
	}
	return sb, *buf
}
