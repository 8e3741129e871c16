// Package wire is hybriddb's SQL-over-the-wire layer: a length-prefixed
// binary protocol (this file) and the server that binds connections to
// engine sessions (server.go). The client half lives in
// client/hybridsql, which implements database/sql/driver on top of the
// same frames.
//
// Framing: every frame is a big-endian uint32 payload length followed
// by the payload; the payload's first byte is the frame type, the rest
// is type-specific. Payloads are capped at MaxFrame so a corrupt or
// hostile length prefix cannot balloon allocation. Strings are uvarint
// byte lengths followed by UTF-8 bytes; integers inside payloads are
// uvarints unless a field is documented fixed-width. Values carry a
// one-byte type tag followed by a fixed or length-prefixed payload, so
// rows are self-describing.
//
// The protocol is synchronous: a client sends one request frame and
// reads response frames until the request is complete. An Exec is
// answered with a ResultHeader and then every RowBatch of the result,
// the last flagged EOF: the server pushes the whole reply, so each
// statement is one request frame and a reply is complete before its
// connection goes idle. One statement is in flight per connection at a
// time — concurrency comes from opening many connections, which the
// engine's admission controller bounds.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"slices"

	"hybriddb/internal/value"
)

// MaxFrame bounds one frame's payload (type byte included). Row
// batches are sized by the server to stay under it.
const MaxFrame = 1 << 24

// ProtocolVersion is the handshake version this package speaks.
// Version 1 clients pulled each RowBatch with a Fetch; version 2
// servers push them.
const ProtocolVersion = 2

// Frame types. Client-originated types have the high bit clear,
// server-originated types have it set.
const (
	FrameHello     = 0x01 // version, user, token, option pairs
	FramePrepare   = 0x02 // sql
	FrameExec      = 0x03 // mode (0: sql text, 1: prepared id), payload
	FrameFetch     = 0x04 // retired in version 2 (results are pushed): named by the benchmark's wire tap, refused by the server as unknown
	FrameCloseStmt = 0x05 // prepared id
	FrameSessions  = 0x06 // no body
	FrameQuit      = 0x07 // no body
	FramePing      = 0x08 // no body

	FrameHelloOK      = 0x81 // session id
	FrameError        = 0x82 // message
	FramePrepareOK    = 0x83 // prepared id
	FrameResultHeader = 0x84 // columns, rows affected, metrics summary
	FrameRowBatch     = 0x85 // eof flag, row count, values
	FrameDone         = 0x86 // no body
	FrameSessionsOK   = 0x87 // session list
	FramePong         = 0x88 // no body
)

// Value type tags inside row batches.
const (
	tagNull   = 0
	tagInt    = 1 // 8-byte big-endian two's complement
	tagFloat  = 2 // 8-byte big-endian IEEE 754
	tagString = 3 // uvarint length + bytes
	tagBool   = 4 // 1 byte, 0 or 1
	tagDate   = 5 // 8-byte big-endian days since Unix epoch
)

// ErrFrameTooLarge reports a length prefix over MaxFrame.
var ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")

// ErrTruncated reports a structurally short frame payload.
var ErrTruncated = errors.New("wire: truncated frame")

// WriteFrame writes one frame (type byte + body) with its length
// prefix.
func WriteFrame(w io.Writer, typ byte, body []byte) error {
	n := 1 + len(body)
	if n > MaxFrame {
		return ErrFrameTooLarge
	}
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(n))
	hdr[4] = typ
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(body) == 0 {
		return nil
	}
	_, err := w.Write(body)
	return err
}

// ReadFrame reads one frame, returning its type and body.
func ReadFrame(r io.Reader) (byte, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 {
		return 0, nil, ErrTruncated
	}
	if n > MaxFrame {
		return 0, nil, ErrFrameTooLarge
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	return buf[0], buf[1:], nil
}

// A Builder accumulates one frame body.
type Builder struct{ buf []byte }

// Bytes returns the accumulated body. It is the Builder's hand-off
// surface: the caller writes the frame and drops the Builder, which is
// never reused after Bytes.
//
//lint:ignore bufalias one-shot frame builder, not operator scratch; Bytes is the documented hand-off and the Builder is dead after it
func (b *Builder) Bytes() []byte { return b.buf }

// Byte appends one raw byte.
func (b *Builder) Byte(v byte) { b.buf = append(b.buf, v) }

// Uvarint appends an unsigned varint.
func (b *Builder) Uvarint(v uint64) { b.buf = binary.AppendUvarint(b.buf, v) }

// String appends a length-prefixed string.
func (b *Builder) String(s string) {
	b.Uvarint(uint64(len(s)))
	b.buf = append(b.buf, s...)
}

// U64 appends a fixed 8-byte big-endian integer.
func (b *Builder) U64(v uint64) { b.buf = binary.BigEndian.AppendUint64(b.buf, v) }

// Value appends one tagged SQL value.
func (b *Builder) Value(v value.Value) {
	switch v.Kind() {
	case value.KindNull:
		b.Byte(tagNull)
	case value.KindInt:
		b.Byte(tagInt)
		b.U64(uint64(v.Int()))
	case value.KindFloat:
		b.Byte(tagFloat)
		b.U64(math.Float64bits(v.Float()))
	case value.KindString:
		b.Byte(tagString)
		b.String(v.Str())
	case value.KindBool:
		b.Byte(tagBool)
		if v.Bool() {
			b.Byte(1)
		} else {
			b.Byte(0)
		}
	case value.KindDate:
		b.Byte(tagDate)
		b.U64(uint64(v.Int()))
	default:
		// Unknown kinds degrade to their rendered string rather than
		// corrupt the stream.
		b.Byte(tagString)
		b.String(v.String())
	}
}

// A Reader consumes one frame body. Every method returns an error on
// truncation instead of panicking — frame bodies are untrusted input.
type Reader struct{ buf []byte }

// NewReader wraps a frame body.
func NewReader(body []byte) *Reader { return &Reader{buf: body} }

// Len returns the number of unconsumed bytes.
//
//lint:ignore bufalias returns a length, not the buffer; nothing aliases
func (r *Reader) Len() int { return len(r.buf) }

// Byte consumes one raw byte.
func (r *Reader) Byte() (byte, error) {
	if len(r.buf) < 1 {
		return 0, ErrTruncated
	}
	v := r.buf[0]
	r.buf = r.buf[1:]
	return v, nil
}

// Uvarint consumes an unsigned varint.
func (r *Reader) Uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		return 0, ErrTruncated
	}
	r.buf = r.buf[n:]
	return v, nil
}

// String consumes a length-prefixed string.
func (r *Reader) String() (string, error) {
	n, err := r.Uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(len(r.buf)) {
		return "", ErrTruncated
	}
	s := string(r.buf[:n])
	r.buf = r.buf[n:]
	return s, nil
}

// U64 consumes a fixed 8-byte big-endian integer.
func (r *Reader) U64() (uint64, error) {
	if len(r.buf) < 8 {
		return 0, ErrTruncated
	}
	v := binary.BigEndian.Uint64(r.buf)
	r.buf = r.buf[8:]
	return v, nil
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

// Value consumes one tagged SQL value.
func (r *Reader) Value() (value.Value, error) {
	tag, err := r.Byte()
	if err != nil {
		return value.Null, err
	}
	switch tag {
	case tagNull:
		return value.Null, nil
	case tagInt:
		u, err := r.U64()
		if err != nil {
			return value.Null, err
		}
		return value.NewInt(int64(u)), nil
	case tagFloat:
		u, err := r.U64()
		if err != nil {
			return value.Null, err
		}
		return value.NewFloat(math.Float64frombits(u)), nil
	case tagString:
		s, err := r.String()
		if err != nil {
			return value.Null, err
		}
		return value.NewString(s), nil
	case tagBool:
		b, err := r.Byte()
		if err != nil {
			return value.Null, err
		}
		if b > 1 {
			return value.Null, fmt.Errorf("wire: bad bool byte %d", b)
		}
		return value.NewBool(b == 1), nil
	case tagDate:
		u, err := r.U64()
		if err != nil {
			return value.Null, err
		}
		return value.NewDate(int64(u)), nil
	default:
		return value.Null, fmt.Errorf("wire: unknown value tag %d", tag)
	}
}

// MetricsSummary is the per-statement measurement block a ResultHeader
// carries: the engine's deterministic vclock Metrics flattened to wire
// scalars.
type MetricsSummary struct {
	ExecUS    int64
	CPUUS     int64
	DataRead  int64
	DataWrite int64
	MemPeak   int64
	DOP       int64
	Rows      int64
}

// Column is one result column: its name and the dominant value kind
// observed in the result (advisory — values are self-describing).
type Column struct {
	Name string
	Kind value.Kind
}

// ResultHeader describes one statement's result set.
type ResultHeader struct {
	Columns      []Column
	RowsAffected int64
	Metrics      MetricsSummary
}

// Encode renders the header as a frame body.
func (h *ResultHeader) Encode() []byte {
	var b Builder
	b.Uvarint(uint64(len(h.Columns)))
	for _, c := range h.Columns {
		b.String(c.Name)
		b.Byte(byte(c.Kind))
	}
	b.U64(uint64(h.RowsAffected))
	b.U64(uint64(h.Metrics.ExecUS))
	b.U64(uint64(h.Metrics.CPUUS))
	b.U64(uint64(h.Metrics.DataRead))
	b.U64(uint64(h.Metrics.DataWrite))
	b.U64(uint64(h.Metrics.MemPeak))
	b.U64(uint64(h.Metrics.DOP))
	b.U64(uint64(h.Metrics.Rows))
	return b.Bytes()
}

// DecodeResultHeader parses a ResultHeader frame body.
func DecodeResultHeader(body []byte) (*ResultHeader, error) {
	r := NewReader(body)
	n, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(body)) { // each column costs >= 2 bytes
		return nil, ErrTruncated
	}
	h := &ResultHeader{}
	for i := uint64(0); i < n; i++ {
		name, err := r.String()
		if err != nil {
			return nil, err
		}
		k, err := r.Byte()
		if err != nil {
			return nil, err
		}
		h.Columns = append(h.Columns, Column{Name: name, Kind: value.Kind(k)})
	}
	fields := []*int64{
		&h.RowsAffected,
		&h.Metrics.ExecUS, &h.Metrics.CPUUS,
		&h.Metrics.DataRead, &h.Metrics.DataWrite,
		&h.Metrics.MemPeak, &h.Metrics.DOP, &h.Metrics.Rows,
	}
	for _, f := range fields {
		u, err := r.U64()
		if err != nil {
			return nil, err
		}
		*f = int64(u)
	}
	return h, nil
}

// EncodeRowBatch renders the longest prefix of rows that fits in one
// RowBatch frame, at least one row, and returns its body and how many
// rows it holds. The batch is flagged EOF when it holds them all, so
// an empty result is one empty EOF batch. The body is sized before it
// is written and allocated once.
func EncodeRowBatch(rows []value.Row) ([]byte, int) {
	const room = MaxFrame - 1 - 1 - binary.MaxVarintLen64 // type, eof flag, row count
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
	b := Builder{buf: make([]byte, 0, 1+binary.MaxVarintLen64+size)}
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

// DecodeRowBatch parses a RowBatch body of width-value rows, appends
// its rows to rows and reports whether it is the result's last batch.
// The batch's values share one backing array.
func DecodeRowBatch(body []byte, width int, rows []value.Row) ([]value.Row, bool, error) {
	r := NewReader(body)
	eof, err := r.Byte()
	if err != nil {
		return rows, false, err
	}
	n, err := r.Uvarint()
	if err != nil {
		return rows, false, err
	}
	// Every value costs at least one byte, and rows have columns.
	if n > 0 && (width <= 0 || n > uint64(r.Len()/width)) {
		return rows, false, ErrTruncated
	}
	vals := make([]value.Value, int(n)*width)
	for i := range vals {
		if vals[i], err = r.Value(); err != nil {
			return rows, false, err
		}
	}
	for lo := 0; lo < len(vals); lo += width {
		rows = append(rows, vals[lo:lo+width:lo+width])
	}
	return rows, eof == 1, nil
}

// Hello is the handshake a client opens its connection with.
type Hello struct {
	User    string
	Token   string
	Options map[string]string // per-session ExecOptions defaults by name
}

// Encode renders the handshake, options in name order, as a frame body
// of this package's ProtocolVersion.
func (h *Hello) Encode() []byte {
	var b Builder
	b.Byte(ProtocolVersion)
	b.String(h.User)
	b.String(h.Token)
	b.Uvarint(uint64(len(h.Options)))
	for _, k := range slices.Sorted(maps.Keys(h.Options)) {
		b.String(k)
		b.String(h.Options[k])
	}
	return b.Bytes()
}

// DecodeHello parses a Hello frame body, refusing any protocol version
// but this package's.
func DecodeHello(body []byte) (*Hello, error) {
	r := NewReader(body)
	ver, err := r.Byte()
	if err != nil {
		return nil, err
	}
	if ver != ProtocolVersion {
		return nil, fmt.Errorf("wire: protocol version %d not supported (server speaks %d)", ver, ProtocolVersion)
	}
	h := &Hello{}
	if h.User, err = r.String(); err != nil {
		return nil, err
	}
	if h.Token, err = r.String(); err != nil {
		return nil, err
	}
	n, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(r.Len()/2) { // each option costs >= 2 bytes
		return nil, ErrTruncated
	}
	h.Options = make(map[string]string, n)
	for i := uint64(0); i < n; i++ {
		k, err := r.String()
		if err != nil {
			return nil, err
		}
		if h.Options[k], err = r.String(); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// SessionRow is one session in a FrameSessionsOK body.
type SessionRow struct {
	ID         int64
	User       string
	State      string
	Statements int64
}

// EncodeSessions renders a session list as a frame body.
func EncodeSessions(rows []SessionRow) []byte {
	var b Builder
	b.Uvarint(uint64(len(rows)))
	for _, s := range rows {
		b.Uvarint(uint64(s.ID))
		b.String(s.User)
		b.String(s.State)
		b.Uvarint(uint64(s.Statements))
	}
	return b.Bytes()
}

// DecodeSessions parses a FrameSessionsOK body.
func DecodeSessions(body []byte) ([]SessionRow, error) {
	r := NewReader(body)
	n, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(body))+1 { // each row costs >= 4 bytes
		return nil, ErrTruncated
	}
	out := make([]SessionRow, 0, n)
	for i := uint64(0); i < n; i++ {
		var s SessionRow
		id, err := r.Uvarint()
		if err != nil {
			return nil, err
		}
		s.ID = int64(id)
		if s.User, err = r.String(); err != nil {
			return nil, err
		}
		if s.State, err = r.String(); err != nil {
			return nil, err
		}
		st, err := r.Uvarint()
		if err != nil {
			return nil, err
		}
		s.Statements = int64(st)
		out = append(out, s)
	}
	return out, nil
}
