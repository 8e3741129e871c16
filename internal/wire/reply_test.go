package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"hybriddb/internal/exec"
	"hybriddb/internal/value"
	"hybriddb/internal/vec"
)

// EncodeRowBatch renders the longest prefix of rows that fits in one
// RowBatch frame, at least one row, and returns its body and how many
// rows it holds; the batch is flagged EOF when it holds them all, so an
// empty result is one empty EOF batch. It is the row-at-a-time encoder
// the server used before replyEncoder, kept as the oracle of protocol 2
// that the encoder's frames must equal byte for byte.
func EncodeRowBatch(rows []value.Row) ([]byte, int) {
	return encodeRowBatch(rows, rowBatchRoom)
}

// encodeRowBatch is EncodeRowBatch with room value bytes to a frame.
func encodeRowBatch(rows []value.Row, room int) ([]byte, int) {
	size, n := 0, 0
	for ; n < len(rows); n++ {
		rs := 0
		for _, v := range rows[n] {
			rs += valueSize(v)
		}
		if n > 0 && size+rs > room {
			break
		}
		size += rs
	}
	var b Builder
	if n == len(rows) {
		b.Byte(1)
	} else {
		b.Byte(0)
	}
	b.Uvarint(uint64(n))
	for _, r := range rows[:n] {
		for _, v := range r {
			b.Value(v)
		}
	}
	return b.Bytes(), n
}

// valueSize is the number of bytes Builder.Value appends for v.
func valueSize(v value.Value) int {
	var s string
	switch v.Kind() {
	case value.KindNull:
		return 1
	case value.KindBool:
		return 2
	case value.KindInt, value.KindFloat, value.KindDate:
		return 9
	case value.KindString:
		s = v.Str()
	default:
		s = v.String()
	}
	var n [binary.MaxVarintLen64]byte
	return 1 + binary.PutUvarint(n[:], uint64(len(s))) + len(s)
}

// columnKind is the header's advisory kind of column ci as the server
// chose it from materialized rows: the first non-NULL kind, or NULL.
func columnKind(rows []value.Row, ci int) value.Kind {
	for _, r := range rows {
		if ci < len(r) && !r[ci].IsNull() {
			return r[ci].Kind()
		}
	}
	return value.KindNull
}

// oracleFrames renders rows as the server did before replyEncoder: a
// WriteFrame of each EncodeRowBatch body until the rows run out.
func oracleFrames(t *testing.T, rows []value.Row, room int) [][]byte {
	var frames [][]byte
	for {
		body, n := encodeRowBatch(rows, room)
		var fr bytes.Buffer
		if err := WriteFrame(&fr, FrameRowBatch, body); err != nil {
			t.Fatal(err)
		}
		frames = append(frames, fr.Bytes())
		if rows = rows[n:]; len(rows) == 0 {
			return frames
		}
	}
}

// randomVec fills a vector of kind with n values drawn to cover the
// encodings' edges: NULLs, ±0.0, NaN, ±Inf, empty and NUL-bearing
// strings, extreme integers and dates, and bools stored as any
// non-zero word.
func randomVec(rng *rand.Rand, kind value.Kind, n int) *vec.Vec {
	v := vec.NewVec(kind)
	floats := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 1.5, -2.25e300}
	strs := []string{"", "a\x00b", "\x00", "héllo", strings.Repeat("z", 200)}
	ints := []int64{0, 1, -1, math.MaxInt64, math.MinInt64, 255, 256, -19000}
	for i := range n {
		switch kind {
		case value.KindFloat:
			if rng.Intn(2) == 0 {
				v.F = append(v.F, floats[rng.Intn(len(floats))])
			} else {
				v.F = append(v.F, rng.NormFloat64())
			}
		case value.KindString:
			v.S = append(v.S, strs[rng.Intn(len(strs))])
		case value.KindBool:
			v.I = append(v.I, int64(rng.Intn(3)))
		default:
			if rng.Intn(2) == 0 {
				v.I = append(v.I, ints[rng.Intn(len(ints))])
			} else {
				v.I = append(v.I, rng.Int63()-rng.Int63())
			}
		}
		if rng.Intn(5) == 0 {
			v.SetNull(i)
		}
	}
	return v
}

// randomSlotBatch builds a batch of width output columns: up to width+1
// vectors of random kinds (KindNull included), each carrying a random
// slot or none (two may carry one slot), so some columns are carried by
// no vector, over up to 40 rows with or without a selection.
func randomSlotBatch(rng *rand.Rand, width int) *exec.SlotBatch {
	n := rng.Intn(41)
	nv := rng.Intn(width + 2)
	b := &vec.Batch{}
	sb := &exec.SlotBatch{B: b, Width: width}
	for range nv {
		b.Cols = append(b.Cols, randomVec(rng, value.Kind(rng.Intn(6)), n))
		sb.Slots = append(sb.Slots, rng.Intn(width+1)-1)
	}
	b.SetLen(n)
	if rng.Intn(2) == 0 {
		b.Sel = []int{}
		for p := range n {
			if rng.Intn(3) > 0 {
				b.Sel = append(b.Sel, p)
			}
		}
	}
	return sb
}

// TestReplyEncoderOracle: for random results — several SlotBatches,
// then value.Rows through the encoder's row front end — and random
// frame rooms, replyEncoder's frames equal WriteFrame of
// EncodeRowBatch over the rows SlotBatch.AppendRows materializes, byte
// for byte, and its header kinds equal columnKind's; the header frame
// goes first.
func TestReplyEncoderOracle(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		width := 1 + rng.Intn(5)
		room := rowBatchRoom
		if rng.Intn(4) > 0 {
			room = rng.Intn(300)
		}
		var e replyEncoder
		e.reset(room)
		var rows []value.Row
		for range rng.Intn(4) {
			sb := randomSlotBatch(rng, width)
			e.appendBatch(sb)
			rows = sb.AppendRows(rows)
		}
		if rng.Intn(3) == 0 {
			extra := randomSlotBatch(rng, width).AppendRows(nil)
			e.appendRows(extra)
			rows = append(rows, extra...)
		}
		header := []byte{7, 8, 9}
		frames, err := e.finish(header, nil)
		if err != nil {
			t.Errorf("seed %d: finish: %v", seed, err)
			return false
		}
		var hf bytes.Buffer
		WriteFrame(&hf, FrameResultHeader, header)
		if !bytes.Equal(frames[0], hf.Bytes()) {
			t.Errorf("seed %d: header frame %x, want %x", seed, frames[0], hf.Bytes())
			return false
		}
		want := oracleFrames(t, rows, room)
		if len(frames)-1 != len(want) {
			t.Errorf("seed %d: %d frames of %d rows, want %d (room %d)", seed, len(frames)-1, len(rows), len(want), room)
			return false
		}
		for i, w := range want {
			if !bytes.Equal(frames[i+1], w) {
				t.Errorf("seed %d: frame %d of %d differs (room %d, %d rows)", seed, i, len(want), room, len(rows))
				return false
			}
		}
		for ci := range width + 1 {
			if got, want := e.kind(ci), columnKind(rows, ci); got != want {
				t.Errorf("seed %d: column %d kind %v, want %v", seed, ci, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestReplyEncoderReuse: an encoder reset for a second result keeps its
// buffer and encodes the second result exactly as a fresh one does.
func TestReplyEncoderReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	first, second := randomSlotBatch(rng, 3), randomSlotBatch(rng, 2)
	var e, fresh replyEncoder
	e.reset(rowBatchRoom)
	e.appendBatch(first)
	if _, err := e.finish(nil, nil); err != nil {
		t.Fatal(err)
	}
	e.reset(rowBatchRoom)
	fresh.reset(rowBatchRoom)
	e.appendBatch(second)
	fresh.appendBatch(second)
	got, _ := e.finish(nil, nil)
	want, _ := fresh.finish(nil, nil)
	if len(got) != len(want) || !bytes.Equal(got[1], want[1]) || e.kind(2) != value.KindNull {
		t.Fatalf("reused encoder: %x, want %x; kind of column 2 %v", got, want, e.kind(2))
	}
}

// TestReplyEncoderOversizeRow: a row too large for any frame is an
// error, not a frame over MaxFrame.
func TestReplyEncoderOversizeRow(t *testing.T) {
	var e replyEncoder
	e.reset(rowBatchRoom)
	e.appendRows([]value.Row{{value.NewInt(1)}, {value.NewString(strings.Repeat("x", MaxFrame))}})
	if _, err := e.finish(nil, nil); err != ErrFrameTooLarge {
		t.Fatalf("finish = %v, want ErrFrameTooLarge", err)
	}
}
