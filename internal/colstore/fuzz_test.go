package colstore

import (
	"encoding/binary"
	"math"
	"testing"

	"hybriddb/internal/value"
	"hybriddb/internal/vec"
)

// fuzzValues decodes a byte stream into a column of one kind plus its
// values: the first byte picks the kind, the second the null rate, the
// rest drive the per-row generator. Small modulos keep dictionaries and
// deltas crossing their encoding boundaries (const/RLE/packed, 1-entry
// and many-entry dictionaries) while occasional raw 8-byte reads inject
// extreme int64s.
func fuzzValues(data []byte) (value.Kind, []value.Value) {
	if len(data) < 2 {
		return value.KindInt, nil
	}
	kinds := []value.Kind{value.KindInt, value.KindDate, value.KindBool, value.KindFloat, value.KindString}
	kind := kinds[int(data[0])%len(kinds)]
	nullMod := int(data[1]%7) + 2
	data = data[2:]
	var vals []value.Value
	for i := 0; i+1 < len(data) && len(vals) < 4096; i += 2 {
		b := data[i]
		if int(b)%nullMod == 0 {
			vals = append(vals, value.Null)
			continue
		}
		x := int64(b)<<8 | int64(data[i+1])
		switch kind {
		case value.KindString:
			// Dictionary size boundary: b odd → tiny alphabet (const or
			// 1-2 entry dictionaries), b even → wide.
			mod := int64(3)
			if b%2 == 0 {
				mod = 601
			}
			vals = append(vals, value.NewString(string(rune('a'+(x%mod)%26))+string(rune('a'+(x%mod)/26%26))))
		case value.KindBool:
			vals = append(vals, value.NewBool(x%2 == 0))
		case value.KindFloat:
			vals = append(vals, value.NewFloat(float64(x-16384)/float64(int64(b)+1)))
		case value.KindDate:
			vals = append(vals, value.NewDate(x-16384))
		default:
			if b == 0xff && i+8 < len(data) {
				// Raw 8 bytes: extreme values, overflow boundaries.
				vals = append(vals, value.NewInt(int64(binary.LittleEndian.Uint64(data[i+1:]))))
				i += 7
				continue
			}
			vals = append(vals, value.NewInt(x-16384))
		}
	}
	return kind, vals
}

// sameValue compares with float NaN/bit awareness: round-tripping must
// preserve the exact bit pattern, not just numeric equality.
func sameValue(a, b value.Value) bool {
	if a.IsNull() || b.IsNull() {
		return a.IsNull() == b.IsNull()
	}
	if a.Kind() != b.Kind() {
		return false
	}
	if a.Kind() == value.KindFloat {
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	}
	return value.Compare(a, b) == 0
}

// valueAt is the reference decoder: it reads position i alone, without
// the run and word walks of decodeRange and decodeSelected.
func (s *segment) valueAt(i int) value.Value {
	if s.isNull(i) {
		return value.Null
	}
	raw := s.base
	switch s.enc {
	case encPacked:
		raw += int64(s.getPacked(i))
	case encRLE:
		raw += s.runs[s.runAt(i)].val
	}
	switch s.kind {
	case value.KindString:
		return value.NewString(s.dict[raw])
	case value.KindFloat:
		return value.NewFloat(math.Float64frombits(uint64(raw)))
	case value.KindBool:
		return value.NewBool(raw != 0)
	case value.KindDate:
		return value.NewDate(raw)
	default:
		return value.NewInt(raw)
	}
}

// checkDecoded decodes s into vectors every way the scanner and the
// mover do — the whole range, the range in two calls appending to one
// vector, every position selected, and every other position selected —
// and checks each value's NULL flag and payload against vals. A NULL
// string must carry "".
func checkDecoded(t *testing.T, s *segment, vals []value.Value) {
	t.Helper()
	check := func(how string, v *vec.Vec, pos []int) {
		t.Helper()
		if v.Len() != len(pos) {
			t.Fatalf("%s: %d values, want %d (enc %d)", how, v.Len(), len(pos), s.enc)
		}
		for k, i := range pos {
			want := vals[i]
			if v.IsNull(k) != want.IsNull() || !sameValue(v.Value(k), want) {
				t.Fatalf("%s: position %d = %v (null %v), want %v (enc %d)", how, i, v.Value(k), v.IsNull(k), want, s.enc)
			}
			if want.IsNull() && s.kind == value.KindString && v.S[k] != "" {
				t.Fatalf("%s: NULL string at %d carries %q (enc %d)", how, i, v.S[k], s.enc)
			}
		}
	}
	all := make([]int, s.n)
	for i := range all {
		all[i] = i
	}
	v := vec.NewVec(s.kind)
	s.decodeRange(v, 0, s.n)
	check("decodeRange", v, all)

	v = vec.NewVec(s.kind)
	s.decodeRange(v, 0, s.n/2)
	s.decodeRange(v, s.n/2, s.n)
	check("decodeRange in two calls", v, all)

	v = vec.NewVec(s.kind)
	s.decodeSelected(v, all)
	check("decodeSelected", v, all)

	var odd []int
	for i := 1; i < s.n; i += 2 {
		odd = append(odd, i)
	}
	v = vec.NewVec(s.kind)
	s.decodeSelected(v, odd)
	check("decodeSelected every other", v, odd)
}

// FuzzSegmentRoundTrip checks that every encoding choice decodes back
// to the exact input: valueAt per position, and into vectors through
// decodeRange and decodeSelected (checkDecoded).
func FuzzSegmentRoundTrip(f *testing.F) {
	f.Add([]byte{0, 3, 10, 20, 30, 40, 50, 60})
	f.Add([]byte{4, 2, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Add([]byte{3, 5, 255, 255, 255, 255, 255, 255, 255, 255, 255, 0, 1})
	f.Add([]byte{2, 6, 9, 9, 9, 9, 9, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		kind, vals := fuzzValues(data)
		if len(vals) == 0 {
			return
		}
		s := buildSegment(kind, vals)
		if s.n != len(vals) {
			t.Fatalf("n = %d, want %d", s.n, len(vals))
		}
		for i, want := range vals {
			if got := s.valueAt(i); !sameValue(got, want) {
				t.Fatalf("valueAt(%d) = %v, want %v (enc %d)", i, got, want, s.enc)
			}
		}
		checkDecoded(t, s, vals)
	})
}

// TestDecodeEveryEncoding decodes one segment of each encoding into
// vectors: constant, bit-packed and run-length integers (with and
// without NULLs), a float, dictionary strings packed and run-length,
// and an all-NULL string segment whose dictionary is empty.
func TestDecodeEveryEncoding(t *testing.T) {
	ints := func(xs ...int64) []value.Value {
		out := make([]value.Value, len(xs))
		for i, x := range xs {
			out[i] = value.NewInt(x)
		}
		return out
	}
	repeat := func(vals []value.Value, n int) []value.Value {
		var out []value.Value
		for range n {
			out = append(out, vals...)
		}
		return out
	}
	var packed, runs, strs, strRuns, floats []value.Value
	for i := range 600 {
		packed = append(packed, value.NewInt(int64(i*7919%1000)))
		runs = append(runs, value.NewInt(int64(i/100)))
		strs = append(strs, value.NewString(string(rune('a'+i*31%26))))
		strRuns = append(strRuns, value.NewString(string(rune('a'+i/150))))
		floats = append(floats, value.NewFloat(float64(i*37%500)/8))
	}
	// withNulls blanks every seventh value; runNulls blanks one run of
	// them, so the segment stays run-length encoded.
	withNulls := func(vals []value.Value) []value.Value {
		out := append([]value.Value(nil), vals...)
		for i := 3; i < len(out); i += 7 {
			out[i] = value.Null
		}
		return out
	}
	runNulls := func(vals []value.Value) []value.Value {
		out := append([]value.Value(nil), vals...)
		for i := 150; i < 300; i++ {
			out[i] = value.Null
		}
		return out
	}
	for _, c := range []struct {
		name string
		kind value.Kind
		enc  encKind
		vals []value.Value
	}{
		{"const", value.KindInt, encConst, repeat(ints(42), 300)},
		{"const_nulls", value.KindInt, encConst, repeat([]value.Value{value.NewInt(42), value.Null}, 150)},
		{"packed", value.KindInt, encPacked, packed},
		{"packed_nulls", value.KindInt, encPacked, withNulls(packed)},
		{"rle", value.KindInt, encRLE, runs},
		{"rle_nulls", value.KindInt, encRLE, runNulls(runs)},
		{"float_packed_nulls", value.KindFloat, encPacked, withNulls(floats)},
		{"dict_packed_nulls", value.KindString, encPacked, withNulls(strs)},
		{"dict_rle_nulls", value.KindString, encRLE, runNulls(strRuns)},
		{"dict_const", value.KindString, encConst, repeat([]value.Value{value.NewString("x")}, 300)},
		{"string_all_null", value.KindString, encConst, repeat([]value.Value{value.Null}, 300)},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := buildSegment(c.kind, c.vals)
			if s.enc != c.enc {
				t.Fatalf("enc = %d, want %d", s.enc, c.enc)
			}
			if c.name == "string_all_null" && len(s.dict) != 0 {
				t.Fatalf("all-NULL dictionary has %d entries", len(s.dict))
			}
			checkDecoded(t, s, c.vals)
		})
	}
}

// FuzzKernelVsNaive is the differential target: arbitrary data, an
// arbitrary predicate, and an arbitrary sub-range must produce the
// same selection from the compiled kernel as from per-row Match.
func FuzzKernelVsNaive(f *testing.F) {
	f.Add([]byte{0, 3, 10, 20, 30, 40, 50, 60}, byte(2), uint16(100), byte(0), byte(100))
	f.Add([]byte{4, 2, 1, 2, 3, 4, 5, 6, 7, 8}, byte(0), uint16(3), byte(1), byte(255))
	f.Add([]byte{1, 4, 9, 8, 7, 6, 5, 4, 3, 2}, byte(5), uint16(0), byte(10), byte(90))
	f.Fuzz(func(t *testing.T, data []byte, opByte byte, constSel uint16, fromB, toB byte) {
		kind, vals := fuzzValues(data)
		if len(vals) == 0 {
			return
		}
		if kind == value.KindFloat {
			return // floats are not kernel-evaluable (Pushable rejects them)
		}
		s := buildSegment(kind, vals)
		op := allOps[int(opByte)%len(allOps)]

		// Pick the predicate constant from the data itself (hits stored
		// values and dictionary entries) or synthesize an outlier.
		var cv value.Value
		pick := int(constSel) % (len(vals) + 2)
		switch {
		case pick < len(vals) && !vals[pick].IsNull():
			cv = vals[pick]
		case kind == value.KindString:
			cv = value.NewString("~outlier~")
		default:
			cv = value.NewInt(math.MaxInt64 - int64(constSel))
		}
		if cv.IsNull() {
			return
		}
		if !Pushable(kind, cv) {
			return
		}

		from := int(fromB) % len(vals)
		to := from + int(toB)%(len(vals)-from) + 1
		if to > len(vals) {
			to = len(vals)
		}

		p := Pred{Op: op, Val: cv}
		want := naiveSel(s, p, from, to)
		got := kernelSel(s, p, from, to)
		if !sameSel(got, want) {
			t.Fatalf("enc=%d op=%s const=%v range=[%d,%d): kernel %v, naive %v", s.enc, op, cv, from, to, got, want)
		}
		// refine must agree too: seed with all live rows, refine by p.
		sp := compilePred(s, p)
		all := appendLive(nil, s, from, to)
		refined := sp.refine(all)
		if !sameSel(refined, want) {
			t.Fatalf("refine: enc=%d op=%s const=%v: got %v, want %v", s.enc, op, cv, refined, want)
		}
	})
}
