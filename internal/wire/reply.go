package wire

import (
	"encoding/binary"
	"math"

	"hybriddb/internal/exec"
	"hybriddb/internal/value"
	"hybriddb/internal/vec"
)

// rowBatchRoom is how many value bytes one RowBatch frame holds: its
// payload less the type byte, the EOF flag and the longest row count.
const rowBatchRoom = MaxFrame - 1 - 1 - binary.MaxVarintLen64

// framePrefix is the room a RowBatch frame's values start behind: the
// length prefix, the type byte, the EOF flag and the longest row count.
const framePrefix = 4 + 1 + 1 + binary.MaxVarintLen64

// A replyEncoder renders a result's RowBatch frames, length prefixes
// included, into one buffer as its rows arrive. It has two front ends
// onto one frame writer: appendBatch takes the executor's vectors,
// appendRows value.Rows (EXPLAIN and DML results). A frame's prefix is
// written when the frame closes, into room reserved ahead of its
// values; frames hold the longest run of rows that fits in room value
// bytes, at least one, and the last is flagged EOF, so an empty result
// is one empty EOF frame. kinds tracks each column's first non-NULL
// kind, the ResultHeader's advisory column kinds.
type replyEncoder struct {
	out    []byte // frames; a closed frame is out[spans[2k]:spans[2k+1]]
	spans  []int
	open   int // offset in out of the open frame's first value
	rows   int // rows in the open frame
	room   int
	kinds  []value.Kind
	slotOf []int // per output column: the batch vector carrying it, or -1
}

// reset readies e for a result, keeping its buffers. room is
// rowBatchRoom outside tests.
func (e *replyEncoder) reset(room int) {
	e.out, e.spans, e.kinds, e.room = e.out[:0], e.spans[:0], e.kinds[:0], room
	e.openFrame()
}

// openFrame starts a frame at the end of out.
func (e *replyEncoder) openFrame() {
	e.out = append(e.out, make([]byte, framePrefix)...)
	e.open, e.rows = len(e.out), 0
}

// closeFrame writes the open frame's prefix, its values ending at end.
func (e *replyEncoder) closeFrame(end int, eof bool) {
	var count [binary.MaxVarintLen64]byte
	cn := binary.PutUvarint(count[:], uint64(e.rows))
	start := e.open - cn - 6
	payload := end - start - 4
	binary.BigEndian.PutUint32(e.out[start:], uint32(payload))
	e.out[start+4] = FrameRowBatch
	e.out[start+5] = 0
	if eof {
		e.out[start+5] = 1
	}
	copy(e.out[start+6:], count[:cn])
	e.spans = append(e.spans, start, end)
}

// endRow counts the row whose values begin at start. A row that takes
// the open frame past room closes the frame before it and moves behind
// a new frame's prefix.
func (e *replyEncoder) endRow(start int) {
	if e.rows > 0 && len(e.out)-e.open > e.room {
		n := len(e.out) - start
		e.out = append(e.out, make([]byte, framePrefix)...)
		copy(e.out[start+framePrefix:], e.out[start:start+n])
		e.closeFrame(start, false)
		e.open, e.rows = start+framePrefix, 0
	}
	e.rows++
}

// widen makes room for the kinds of n columns.
func (e *replyEncoder) widen(n int) {
	if n > len(e.kinds) {
		e.kinds = append(e.kinds, make([]value.Kind, n-len(e.kinds))...)
	}
}

// seen records a non-NULL value of kind in column ci, widened for.
func (e *replyEncoder) seen(ci int, kind value.Kind) {
	if e.kinds[ci] == value.KindNull {
		e.kinds[ci] = kind
	}
}

// kind returns column ci's first non-NULL kind, or NULL when it has
// none.
func (e *replyEncoder) kind(ci int) value.Kind {
	if ci < len(e.kinds) {
		return e.kinds[ci]
	}
	return value.KindNull
}

// appendRows encodes rows.
func (e *replyEncoder) appendRows(rows []value.Row) {
	for _, r := range rows {
		e.widen(len(r))
		start := len(e.out)
		for ci, v := range r {
			if !v.IsNull() {
				e.seen(ci, v.Kind())
			}
			e.out = appendValue(e.out, v)
		}
		e.endRow(start)
	}
}

// appendBatch encodes sb's live rows as exec's SlotBatch.AppendRows
// would materialize them: width sb.Width, each column read from the
// vector that carries its slot (the last one, should two), NULL where
// none does, and each vector value as vec.Vec.Value reads it.
func (e *replyEncoder) appendBatch(sb *exec.SlotBatch) {
	e.slotOf = e.slotOf[:0]
	for range sb.Width {
		e.slotOf = append(e.slotOf, -1)
	}
	for vi, slot := range sb.Slots {
		if slot >= 0 {
			e.slotOf[slot] = vi
		}
	}
	e.widen(sb.Width)
	b := sb.B
	for i := range b.Len() {
		p := b.LiveIndex(i)
		start := len(e.out)
		for ci, vi := range e.slotOf {
			if vi < 0 {
				e.out = append(e.out, tagNull)
				continue
			}
			e.appendVec(ci, b.Cols[vi], p)
		}
		e.endRow(start)
	}
}

// appendVec appends position p of v as a value of column ci.
func (e *replyEncoder) appendVec(ci int, v *vec.Vec, p int) {
	if v.IsNull(p) {
		e.out = append(e.out, tagNull)
		return
	}
	switch v.Kind {
	case value.KindFloat:
		e.seen(ci, value.KindFloat)
		e.out = appendU64(e.out, tagFloat, math.Float64bits(v.F[p]))
	case value.KindString:
		e.seen(ci, value.KindString)
		e.out = appendString(e.out, v.S[p])
	case value.KindBool:
		e.seen(ci, value.KindBool)
		e.out = appendBool(e.out, v.I[p] != 0)
	case value.KindDate:
		e.seen(ci, value.KindDate)
		e.out = appendU64(e.out, tagDate, uint64(v.I[p]))
	default:
		e.seen(ci, value.KindInt)
		e.out = appendU64(e.out, tagInt, uint64(v.I[p]))
	}
}

// finish closes the last frame, flagged EOF, appends a ResultHeader
// frame of body header behind it, and appends to frames the header's
// frame and then every RowBatch frame, in the order they go out. It
// returns ErrFrameTooLarge when a row did not fit in a frame of its
// own.
func (e *replyEncoder) finish(header []byte, frames [][]byte) ([][]byte, error) {
	e.closeFrame(len(e.out), true)
	lo := len(e.out)
	e.out = binary.BigEndian.AppendUint32(e.out, uint32(1+len(header)))
	e.out = append(append(e.out, FrameResultHeader), header...)
	frames = append(frames, e.out[lo:])
	for k := 0; k < len(e.spans); k += 2 {
		lo, hi := e.spans[k], e.spans[k+1]
		if hi-lo-4 > MaxFrame {
			return frames, ErrFrameTooLarge
		}
		frames = append(frames, e.out[lo:hi])
	}
	return frames, nil
}
