// Package colstore implements columnstore indexes modelled on the SQL
// Server design the paper studies (Section 2): compressed rowgroups of
// per-column segments with min/max metadata for segment elimination, a
// B+ tree delta store for trickle inserts, a delete bitmap (primary
// index) and a delete buffer with anti-semi join (secondary index), and
// a tuple-mover that compresses the delta store and compacts the delete
// buffer in the background.
package colstore

import (
	"math"
	"math/bits"
	"sort"

	"hybriddb/internal/value"
	"hybriddb/internal/vec"
)

type encKind uint8

const (
	encConst  encKind = iota // all values identical: store base only
	encPacked                // bit-packed deltas from base
	encRLE                   // run-length encoded deltas from base
)

// run is one RLE run of an identical encoded value.
type run struct {
	val   int64 // delta from segment base
	count int32
}

// segment is one column of one rowgroup, compressed. It implements
// storage.Page; ByteSize is the accounted compressed size, which is
// what cold scans pay to read.
type segment struct {
	kind     value.Kind
	n        int
	min, max value.Value // over non-null values; Null if all null

	enc   encKind
	base  int64    // value subtracted before packing (or float bits)
	width uint8    // bits per packed value
	maxd  uint64   // largest delta stored (0 for const/empty)
	words []uint64 // packed payload

	runs      []run
	runStarts []int32 // cumulative start row of each run

	dict  []string // string dictionary, sorted; encoded value = index
	nulls []uint64 // null bitmap, nil if no nulls

	bytes int64
}

func (s *segment) ByteSize() int64 { return s.bytes }

// intRep converts a value to the segment's int64 representation.
// Strings are handled separately via the dictionary.
func intRep(v value.Value) int64 {
	switch v.Kind() {
	case value.KindFloat:
		return int64(math.Float64bits(v.Float()))
	case value.KindBool:
		if v.Bool() {
			return 1
		}
		return 0
	default:
		return v.Int()
	}
}

func bitsFor(x uint64) uint8 {
	if x == 0 {
		return 0
	}
	return uint8(bits.Len64(x))
}

// buildSegment compresses vals (all of the same kind, or NULL) into a
// segment, choosing between constant, bit-packed, and run-length
// encodings by resulting size — the engine's analogue of the VertiPaq
// encoding choice described in Section 2.
func buildSegment(kind value.Kind, vals []value.Value) *segment {
	s := &segment{kind: kind, n: len(vals)}
	ints := make([]int64, len(vals))
	var dictBytes int64

	if kind == value.KindString {
		// Dictionary encode: sorted unique strings, value = index, so
		// min/max ids correspond to lexical min/max. One key sort gives
		// both: NULLs sort first, then each run of equal keys is one
		// string.
		keys := value.SortKeys(len(vals), func(dst []byte, i int) []byte { return value.EncodeKey(dst, vals[i]) })
		s.dict = []string{}
		for i := range vals {
			p := keys.Pos(i)
			if vals[p].IsNull() {
				s.setNull(p)
				continue
			}
			if keys.NewRun(i) {
				s.dict = append(s.dict, vals[p].Str())
				dictBytes += int64(len(vals[p].Str()) + 4)
			}
			ints[p] = int64(len(s.dict) - 1)
		}
		if len(s.dict) > 0 {
			s.min = value.NewString(s.dict[0])
			s.max = value.NewString(s.dict[len(s.dict)-1])
		}
	} else {
		var minV, maxV value.Value
		for i, v := range vals {
			if v.IsNull() {
				s.setNull(i)
				continue
			}
			ints[i] = intRep(v)
			if minV.IsNull() || value.Compare(v, minV) < 0 {
				minV = v
			}
			if maxV.IsNull() || value.Compare(v, maxV) > 0 {
				maxV = v
			}
		}
		s.min, s.max = minV, maxV
	}

	// Base-relative representation. Null slots carry base (delta 0).
	var base int64
	first := true
	for i := range ints {
		if s.isNull(i) {
			continue
		}
		if first || ints[i] < base {
			base = ints[i]
			first = false
		}
	}
	s.base = base
	var maxDelta uint64
	runs := 1
	var prev int64
	for i := range ints {
		if s.isNull(i) {
			ints[i] = base
		}
		d := uint64(ints[i] - base)
		if d > maxDelta {
			maxDelta = d
		}
		if i > 0 && ints[i] != prev {
			runs++
		}
		prev = ints[i]
	}
	if len(ints) == 0 {
		runs = 0
	}
	s.width = bitsFor(maxDelta)
	s.maxd = maxDelta

	const headerBytes = 64
	nullBytes := int64(0)
	if s.nulls != nil {
		nullBytes = int64(len(s.nulls) * 8)
	}
	packedBytes := int64((len(ints)*int(s.width) + 7) / 8)
	rleBytes := int64(runs) * 10 // ~6B value + 4B count

	switch {
	case s.width == 0:
		s.enc = encConst
		s.bytes = headerBytes + dictBytes + nullBytes
	case rleBytes < packedBytes:
		s.enc = encRLE
		s.runs = make([]run, 0, runs)
		s.runStarts = make([]int32, 0, runs)
		for i := 0; i < len(ints); {
			j := i
			for j < len(ints) && ints[j] == ints[i] {
				j++
			}
			s.runs = append(s.runs, run{val: ints[i] - base, count: int32(j - i)})
			s.runStarts = append(s.runStarts, int32(i))
			i = j
		}
		s.bytes = headerBytes + dictBytes + nullBytes + rleBytes
	default:
		s.enc = encPacked
		s.words = make([]uint64, (len(ints)*int(s.width)+63)/64)
		for i, v := range ints {
			s.put(i, uint64(v-base))
		}
		s.bytes = headerBytes + dictBytes + nullBytes + packedBytes
	}
	return s
}

func (s *segment) setNull(i int) {
	if s.nulls == nil {
		s.nulls = make([]uint64, (s.n+63)/64)
	}
	s.nulls[i/64] |= 1 << (uint(i) % 64)
}

func (s *segment) isNull(i int) bool {
	return s.nulls != nil && s.nulls[i/64]&(1<<(uint(i)%64)) != 0
}

// put writes packed value v at position i. Caller guarantees v fits in
// s.width bits.
func (s *segment) put(i int, v uint64) {
	w := uint(s.width)
	bitPos := uint(i) * w
	word, off := bitPos/64, bitPos%64
	s.words[word] |= v << off
	if off+w > 64 {
		s.words[word+1] |= v >> (64 - off)
	}
}

// getPacked reads the packed value at position i.
func (s *segment) getPacked(i int) uint64 {
	w := uint(s.width)
	bitPos := uint(i) * w
	word, off := bitPos/64, bitPos%64
	v := s.words[word] >> off
	if off+w > 64 {
		v |= s.words[word+1] << (64 - off)
	}
	return v & (1<<w - 1)
}

// runAt returns the index of the RLE run holding position i.
func (s *segment) runAt(i int) int {
	return sort.Search(len(s.runStarts), func(j int) bool {
		return s.runStarts[j] > int32(i)
	}) - 1
}

// runEnd returns the position just past RLE run r.
func (s *segment) runEnd(r int) int {
	if r+1 < len(s.runStarts) {
		return int(s.runStarts[r+1])
	}
	return s.n
}

// decodeRange appends positions [from, to) to dst, whose kind is the
// segment's: a constant or an RLE run is converted once and repeated,
// a packed value is converted as it is read.
func (s *segment) decodeRange(dst *vec.Vec, from, to int) {
	n0 := dst.Len()
	switch s.enc {
	case encConst:
		s.fill(dst, s.base, to-from)
	case encPacked:
		s.appendPacked(dst, from, to-from, nil)
	default:
		for r, i := s.runAt(from), from; i < to; r++ {
			end := min(s.runEnd(r), to)
			s.fill(dst, s.base+s.runs[r].val, end-i)
			i = end
		}
	}
	s.flagNulls(dst, n0, from, nil)
}

// decodeSelected appends only the (ascending) group-row positions in
// sel to dst — the late-materialization path: non-filter columns are
// decoded for surviving rows only.
func (s *segment) decodeSelected(dst *vec.Vec, sel []int) {
	n0 := dst.Len()
	switch s.enc {
	case encConst:
		s.fill(dst, s.base, len(sel))
	case encPacked:
		s.appendPacked(dst, 0, len(sel), sel)
	default:
		var r int
		if len(sel) > 0 {
			r = s.runAt(sel[0])
		}
		for k := 0; k < len(sel); r++ {
			j, end := k, s.runEnd(r)
			for j < len(sel) && sel[j] < end {
				j++
			}
			s.fill(dst, s.base+s.runs[r].val, j-k)
			k = j
		}
	}
	s.flagNulls(dst, n0, 0, sel)
}

// fill appends k copies of the value whose representation is raw. A
// string segment whose every row is NULL has an empty dictionary; its
// rows carry "".
func (s *segment) fill(dst *vec.Vec, raw int64, k int) {
	switch s.kind {
	case value.KindFloat:
		dst.F = appendN(dst.F, math.Float64frombits(uint64(raw)), k)
	case value.KindString:
		str := ""
		if len(s.dict) > 0 {
			str = s.dict[raw]
		}
		dst.S = appendN(dst.S, str, k)
	default:
		dst.I = appendN(dst.I, raw, k)
	}
}

func appendN[T any](dst []T, v T, k int) []T {
	for ; k > 0; k-- {
		dst = append(dst, v)
	}
	return dst
}

// appendPacked appends the n packed values at positions from, from+1,
// ... or, when sel is non-nil, at sel's positions.
func (s *segment) appendPacked(dst *vec.Vec, from, n int, sel []int) {
	raw := func(k int) int64 {
		i := from + k
		if sel != nil {
			i = sel[k]
		}
		return s.base + int64(s.getPacked(i))
	}
	switch s.kind {
	case value.KindFloat:
		for k := 0; k < n; k++ {
			dst.F = append(dst.F, math.Float64frombits(uint64(raw(k))))
		}
	case value.KindString:
		for k := 0; k < n; k++ {
			dst.S = append(dst.S, s.dict[raw(k)])
		}
	default:
		for k := 0; k < n; k++ {
			dst.I = append(dst.I, raw(k))
		}
	}
}

// flagNulls marks NULL the values appended to dst from position n0 on,
// which were read from positions from, from+1, ... or, when sel is
// non-nil, from sel's positions. A NULL string carries "" (its slot
// holds the dictionary's first entry, or none).
func (s *segment) flagNulls(dst *vec.Vec, n0, from int, sel []int) {
	if s.nulls == nil {
		return
	}
	for k := range dst.Len() - n0 {
		i := from + k
		if sel != nil {
			i = sel[k]
		}
		if s.isNull(i) {
			dst.SetNull(n0 + k)
			if s.kind == value.KindString {
				dst.S[n0+k] = ""
			}
		}
	}
}

// unpackRange decodes the packed deltas at positions [from, to) into
// dst (which must have capacity to-from), walking the payload words
// linearly instead of recomputing word/offset per index. This is the
// word-block decode the predicate kernels and selected-position
// materialization share; it is only valid on encPacked segments.
func (s *segment) unpackRange(dst []uint64, from, to int) []uint64 {
	dst = dst[:0]
	w := uint(s.width)
	if w == 0 {
		for i := from; i < to; i++ {
			dst = append(dst, 0)
		}
		return dst
	}
	mask := ^uint64(0)
	if w < 64 {
		mask = 1<<w - 1
	}
	words := s.words
	bitPos := uint(from) * w
	for i := from; i < to; i++ {
		word, off := bitPos>>6, bitPos&63
		v := words[word] >> off
		if off+w > 64 {
			v |= words[word+1] << (64 - off)
		}
		dst = append(dst, v&mask)
		bitPos += w
	}
	return dst
}
