package wire

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"net"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"hybriddb/internal/engine"
	"hybriddb/internal/metrics"
	"hybriddb/internal/value"
	"hybriddb/internal/vclock"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	body := []byte{1, 2, 3, 4}
	if err := WriteFrame(&buf, FrameExec, body); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	typ, got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	if typ != FrameExec || !bytes.Equal(got, body) {
		t.Fatalf("round trip = 0x%02x %v", typ, got)
	}
}

func TestValueRoundTrip(t *testing.T) {
	vals := []value.Value{
		value.Null,
		value.NewInt(42),
		value.NewInt(-7),
		value.NewFloat(3.5),
		value.NewFloat(-0.125),
		value.NewString(""),
		value.NewString("héllo wörld"),
		value.NewBool(true),
		value.NewBool(false),
		value.NewDate(19000),
	}
	var b Builder
	for _, v := range vals {
		before := len(b.Bytes())
		b.Value(v)
		if got := len(b.Bytes()) - before; got != valueSize(v) {
			t.Fatalf("%v: Value appended %d bytes, valueSize says %d", v, got, valueSize(v))
		}
	}
	r := NewReader(b.Bytes())
	for i, want := range vals {
		got, err := r.Value()
		if err != nil {
			t.Fatalf("value %d: %v", i, err)
		}
		if value.Compare(got, want) != 0 || got.Kind() != want.Kind() {
			t.Fatalf("value %d: got %v (%v), want %v (%v)", i, got, got.Kind(), want, want.Kind())
		}
	}
	if r.Len() != 0 {
		t.Fatalf("%d trailing bytes", r.Len())
	}
}

func TestResultHeaderRoundTrip(t *testing.T) {
	h := ResultHeader{
		Columns:      []Column{{Name: "a", Kind: value.KindInt}, {Name: "b", Kind: value.KindString}},
		RowsAffected: 7,
		Metrics:      MetricsSummary{ExecUS: 1, CPUUS: 2, DataRead: 3, DataWrite: 4, MemPeak: 5, DOP: 6, Rows: 7},
	}
	got, err := DecodeResultHeader(h.Encode())
	if err != nil {
		t.Fatalf("DecodeResultHeader: %v", err)
	}
	if len(got.Columns) != 2 || got.Columns[0] != h.Columns[0] || got.Columns[1] != h.Columns[1] {
		t.Fatalf("columns = %+v", got.Columns)
	}
	if got.RowsAffected != 7 || got.Metrics != h.Metrics {
		t.Fatalf("decoded = %+v", got)
	}
}

func TestRowBatchRoundTrip(t *testing.T) {
	rows := []value.Row{
		{value.NewInt(1), value.NewString("a")},
		{value.Null, value.NewString("")},
		{value.NewInt(-3), value.NewDate(19000)},
	}
	body, n := EncodeRowBatch(rows)
	if n != len(rows) {
		t.Fatalf("EncodeRowBatch took %d of %d rows", n, len(rows))
	}
	got, eof, err := DecodeRowBatch(body, 2, nil)
	if err != nil || !eof || !reflect.DeepEqual(got, rows) {
		t.Fatalf("DecodeRowBatch = %v, eof %v, err %v; want %v", got, eof, err, rows)
	}
	// An empty result is one empty EOF batch.
	body, n = EncodeRowBatch(nil)
	if got, eof, err := DecodeRowBatch(body, 0, nil); n != 0 || err != nil || !eof || len(got) != 0 {
		t.Fatalf("empty batch: %d rows encoded, %v decoded, eof %v, err %v", n, got, eof, err)
	}
}

func TestSessionsRoundTrip(t *testing.T) {
	rows := []SessionRow{
		{ID: 1, User: "local", State: "idle", Statements: 3},
		{ID: 2, User: "bench", State: "active", Statements: 99},
	}
	got, err := DecodeSessions(EncodeSessions(rows))
	if err != nil {
		t.Fatalf("DecodeSessions: %v", err)
	}
	if len(got) != 2 || got[0] != rows[0] || got[1] != rows[1] {
		t.Fatalf("decoded = %+v", got)
	}
}

func TestReadFrameRejectsOversize(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	_, _, err := ReadFrame(bytes.NewReader(hdr[:]))
	if err != ErrFrameTooLarge {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

// dial opens a raw wire connection with a completed handshake; opts
// are connection option names and values, in pairs.
func dial(t *testing.T, addr, user, token string, opts ...string) net.Conn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	h := Hello{User: user, Token: token, Options: map[string]string{}}
	for i := 0; i+1 < len(opts); i += 2 {
		h.Options[opts[i]] = opts[i+1]
	}
	if err := WriteFrame(nc, FrameHello, h.Encode()); err != nil {
		t.Fatalf("hello: %v", err)
	}
	typ, _, err := ReadFrame(nc)
	if err != nil {
		t.Fatalf("hello response: %v", err)
	}
	if typ != FrameHelloOK {
		t.Fatalf("hello response type = 0x%02x", typ)
	}
	return nc
}

func startServer(t *testing.T, db *engine.Database, opts Options) (*Server, string) {
	t.Helper()
	srv := NewServer(db, opts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv, ln.Addr().String()
}

// execSQL runs one statement over a raw connection and returns the
// header and all rows.
func execSQL(t *testing.T, nc net.Conn, sqlText string) (*ResultHeader, []value.Row) {
	t.Helper()
	writeExec(t, nc, sqlText)
	h := readHeader(t, nc)
	rows, _ := readRows(t, nc, h)
	return h, rows
}

// writeExec sends one Exec of SQL text.
func writeExec(t *testing.T, nc net.Conn, sqlText string) {
	t.Helper()
	var b Builder
	b.Byte(0)
	b.String(sqlText)
	if err := WriteFrame(nc, FrameExec, b.Bytes()); err != nil {
		t.Fatalf("exec write: %v", err)
	}
}

// readHeader reads the ResultHeader that opens an Exec's reply.
func readHeader(t *testing.T, nc net.Conn) *ResultHeader {
	t.Helper()
	typ, body, err := ReadFrame(nc)
	if err != nil {
		t.Fatalf("exec response: %v", err)
	}
	if typ == FrameError {
		msg, _ := NewReader(body).String()
		t.Fatalf("exec error: %s", msg)
	}
	if typ != FrameResultHeader {
		t.Fatalf("exec response type = 0x%02x", typ)
	}
	h, err := DecodeResultHeader(body)
	if err != nil {
		t.Fatalf("decode header: %v", err)
	}
	return h
}

// readRows reads the RowBatch frames that follow a header, up to the
// one flagged EOF, and returns their rows and how many frames there
// were.
func readRows(t *testing.T, nc net.Conn, h *ResultHeader) ([]value.Row, int) {
	t.Helper()
	var rows []value.Row
	for frames := 1; ; frames++ {
		typ, body, err := ReadFrame(nc)
		if err != nil {
			t.Fatalf("row batch %d: %v", frames, err)
		}
		if typ != FrameRowBatch {
			t.Fatalf("row batch %d: frame type = 0x%02x", frames, typ)
		}
		var eof bool
		if rows, eof, err = DecodeRowBatch(body, len(h.Columns), rows); err != nil {
			t.Fatalf("row batch %d: %v", frames, err)
		}
		if eof {
			return rows, frames
		}
	}
}

func TestServerExecEndToEnd(t *testing.T) {
	db := engine.New(vclock.DefaultModel(vclock.DRAM), 0)
	_, addr := startServer(t, db, Options{})
	nc := dial(t, addr, "tester", "")
	defer nc.Close()

	if _, rows := execSQL(t, nc, `CREATE TABLE t (id BIGINT, v BIGINT, PRIMARY KEY (id))`); len(rows) != 0 {
		t.Fatalf("DDL returned rows: %v", rows)
	}
	h, _ := execSQL(t, nc, `INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)`)
	if h.RowsAffected != 3 {
		t.Fatalf("insert rows affected = %d", h.RowsAffected)
	}
	h, rows := execSQL(t, nc, `SELECT id, v FROM t WHERE v >= 20`)
	if len(h.Columns) != 2 || h.Columns[0].Name != "id" {
		t.Fatalf("columns = %+v", h.Columns)
	}
	if len(rows) != 2 || rows[0][0].Int() != 2 || rows[1][1].Int() != 30 {
		t.Fatalf("rows = %v", rows)
	}
	if h.Metrics.ExecUS <= 0 {
		t.Fatalf("metrics summary missing exec time: %+v", h.Metrics)
	}

	// Statement errors keep the connection usable.
	var b Builder
	b.Byte(0)
	b.String(`SELECT nope FROM missing`)
	if err := WriteFrame(nc, FrameExec, b.Bytes()); err != nil {
		t.Fatalf("exec write: %v", err)
	}
	typ, _, err := ReadFrame(nc)
	if err != nil || typ != FrameError {
		t.Fatalf("bad statement: typ=0x%02x err=%v", typ, err)
	}
	if _, rows := execSQL(t, nc, `SELECT id FROM t WHERE id = 1`); len(rows) != 1 {
		t.Fatalf("post-error select rows = %v", rows)
	}
}

// execExpectError runs one statement that must fail and returns the
// server's message; the connection stays usable.
func execExpectError(t *testing.T, nc net.Conn, sqlText string) string {
	t.Helper()
	var b Builder
	b.Byte(0)
	b.String(sqlText)
	if err := WriteFrame(nc, FrameExec, b.Bytes()); err != nil {
		t.Fatalf("exec write: %v", err)
	}
	typ, body, err := ReadFrame(nc)
	if err != nil || typ != FrameError {
		t.Fatalf("%s: typ=0x%02x err=%v, want an Error frame", sqlText, typ, err)
	}
	msg, _ := NewReader(body).String()
	return msg
}

// TestServerSurvivesStatementPanic: a statement that panics in the
// evaluator (over a VARCHAR planted in a BIGINT column through the
// table API, past the binder) fails alone — its session and a second
// session both run their next statement, and the panic is counted.
func TestServerSurvivesStatementPanic(t *testing.T) {
	db := engine.New(vclock.DefaultModel(vclock.DRAM), 0)
	_, addr := startServer(t, db, Options{})
	nc := dial(t, addr, "first", "")
	defer nc.Close()
	execSQL(t, nc, `CREATE TABLE t (a BIGINT, s VARCHAR(8))`)
	execSQL(t, nc, `INSERT INTO t VALUES (1, 'x'), (2, 'y')`)
	execSQL(t, nc, `CREATE TABLE bad (a BIGINT)`)
	// Under the statement lock, as the server's statements run: the
	// reply's write is the only other order between this goroutine and
	// the server's, and the race detector does not see one through a
	// vectored socket write.
	db.SessionManager().Lock()
	db.Table("bad").BulkLoad(nil, []value.Row{{value.NewString("x")}})
	db.SessionManager().Unlock()

	const counter = "hybriddb_statement_panics_total"
	before := metrics.Default().Snapshot()[counter]
	if msg := execExpectError(t, nc, `SELECT a + 1 FROM bad`); !strings.Contains(msg, "panicked") {
		t.Fatalf("error = %q, want the contained panic", msg)
	}
	if got := metrics.Default().Snapshot()[counter] - before; got != 1 {
		t.Fatalf("%s rose by %v, want 1", counter, got)
	}
	if _, rows := execSQL(t, nc, `SELECT a FROM t`); len(rows) != 2 {
		t.Fatalf("same session, next statement: rows = %v", rows)
	}
	second := dial(t, addr, "second", "")
	defer second.Close()
	if _, rows := execSQL(t, second, `SELECT s FROM t WHERE a = 2`); len(rows) != 1 {
		t.Fatalf("second session: rows = %v", rows)
	}
}

// TestNoColumnstoreOverWire: a session opened with no_columnstore=1
// reads, updates and deletes a clustered-columnstore table through its
// primary, the only copy of the table's rows.
func TestNoColumnstoreOverWire(t *testing.T) {
	db := engine.New(vclock.DefaultModel(vclock.DRAM), 0)
	_, addr := startServer(t, db, Options{})
	nc := dial(t, addr, "btree_only", "", "no_columnstore", "1")
	defer nc.Close()
	execSQL(t, nc, `CREATE TABLE t (a BIGINT, b BIGINT)`)
	execSQL(t, nc, `INSERT INTO t VALUES (1, 10), (2, 20), (3, 20), (4, 40)`)
	execSQL(t, nc, `CREATE CLUSTERED COLUMNSTORE INDEX cci ON t`)
	if _, rows := execSQL(t, nc, `SELECT a FROM t WHERE b = 20`); len(rows) != 2 {
		t.Fatalf("select: rows = %v", rows)
	}
	if h, _ := execSQL(t, nc, `UPDATE t SET b = 30 WHERE a = 2`); h.RowsAffected != 1 {
		t.Fatalf("update: %d rows affected, want 1", h.RowsAffected)
	}
	if h, _ := execSQL(t, nc, `DELETE FROM t WHERE b >= 30`); h.RowsAffected != 2 {
		t.Fatalf("delete: %d rows affected, want 2", h.RowsAffected)
	}
	if _, rows := execSQL(t, nc, `SELECT a, b FROM t`); len(rows) != 2 {
		t.Fatalf("after: rows = %v", rows)
	}
}

// TestHandshakeRejectsUnknownOption: row_mode named a second executor
// that no longer exists; like any option the server does not know, a
// handshake carrying it is refused.
func TestHandshakeRejectsUnknownOption(t *testing.T) {
	db := engine.New(vclock.DefaultModel(vclock.DRAM), 0)
	_, addr := startServer(t, db, Options{})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer nc.Close()
	h := Hello{User: "u", Options: map[string]string{"row_mode": "1"}}
	if err := WriteFrame(nc, FrameHello, h.Encode()); err != nil {
		t.Fatalf("hello: %v", err)
	}
	typ, body, err := ReadFrame(nc)
	if err != nil || typ != FrameError {
		t.Fatalf("hello with row_mode: typ=0x%02x err=%v, want an Error frame", typ, err)
	}
	if msg, _ := NewReader(body).String(); !strings.Contains(msg, `unknown connection option "row_mode"`) {
		t.Fatalf("error = %q", msg)
	}
	if n := len(db.Sessions()); n != 1 { // the engine's own local session
		t.Fatalf("%d sessions open after a refused handshake, want 1", n)
	}
}

func TestServerPreparedStatements(t *testing.T) {
	db := engine.New(vclock.DefaultModel(vclock.DRAM), 0)
	_, addr := startServer(t, db, Options{})
	nc := dial(t, addr, "tester", "")
	defer nc.Close()
	execSQL(t, nc, `CREATE TABLE t (id BIGINT, PRIMARY KEY (id))`)
	execSQL(t, nc, `INSERT INTO t VALUES (1), (2)`)

	var b Builder
	b.String(`SELECT id FROM t`)
	if err := WriteFrame(nc, FramePrepare, b.Bytes()); err != nil {
		t.Fatalf("prepare write: %v", err)
	}
	typ, body, err := ReadFrame(nc)
	if err != nil || typ != FramePrepareOK {
		t.Fatalf("prepare: typ=0x%02x err=%v", typ, err)
	}
	r := NewReader(body)
	id, err := r.Uvarint()
	if err != nil {
		t.Fatalf("prepare id: %v", err)
	}

	var eb Builder
	eb.Byte(1)
	eb.Uvarint(id)
	if err := WriteFrame(nc, FrameExec, eb.Bytes()); err != nil {
		t.Fatalf("exec write: %v", err)
	}
	h := readHeader(t, nc)
	if rows, _ := readRows(t, nc, h); h.Metrics.Rows != 2 || len(rows) != 2 {
		t.Fatalf("prepared exec: header %+v, rows %v", h, rows)
	}

	var cb Builder
	cb.Uvarint(id)
	if err := WriteFrame(nc, FrameCloseStmt, cb.Bytes()); err != nil {
		t.Fatalf("close write: %v", err)
	}
	if typ, _, err = ReadFrame(nc); err != nil || typ != FrameDone {
		t.Fatalf("close: typ=0x%02x err=%v", typ, err)
	}
	// Executing a closed statement errors.
	if err := WriteFrame(nc, FrameExec, eb.Bytes()); err != nil {
		t.Fatalf("exec write: %v", err)
	}
	if typ, _, err = ReadFrame(nc); err != nil || typ != FrameError {
		t.Fatalf("closed exec: typ=0x%02x err=%v", typ, err)
	}
}

func TestServerAuth(t *testing.T) {
	db := engine.New(vclock.DefaultModel(vclock.DRAM), 0)
	_, addr := startServer(t, db, Options{Token: "s3cret"})

	// Wrong token is rejected.
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	wrong := Hello{User: "u", Token: "wrong"}
	WriteFrame(nc, FrameHello, wrong.Encode())
	typ, body, err := ReadFrame(nc)
	if err != nil || typ != FrameError {
		t.Fatalf("bad token: typ=0x%02x err=%v", typ, err)
	}
	r := NewReader(body)
	if msg, _ := r.String(); !strings.Contains(msg, "authentication") {
		t.Fatalf("error = %q", msg)
	}
	nc.Close()

	// Right token works.
	good := dial(t, addr, "u", "s3cret")
	defer good.Close()
	if _, rows := execSQL(t, good, `CREATE TABLE t (id BIGINT, PRIMARY KEY (id))`); len(rows) != 0 {
		t.Fatalf("authorized DDL failed")
	}
}

func TestServerSessionsFrame(t *testing.T) {
	db := engine.New(vclock.DefaultModel(vclock.DRAM), 0)
	_, addr := startServer(t, db, Options{})
	a := dial(t, addr, "alice", "")
	defer a.Close()
	bconn := dial(t, addr, "bob", "")
	defer bconn.Close()

	if err := WriteFrame(a, FrameSessions, nil); err != nil {
		t.Fatalf("sessions write: %v", err)
	}
	typ, body, err := ReadFrame(a)
	if err != nil || typ != FrameSessionsOK {
		t.Fatalf("sessions: typ=0x%02x err=%v", typ, err)
	}
	rows, err := DecodeSessions(body)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	// local + alice + bob
	if len(rows) != 3 {
		t.Fatalf("sessions = %+v", rows)
	}
	users := map[string]bool{}
	for _, s := range rows {
		users[s.User] = true
	}
	if !users["local"] || !users["alice"] || !users["bob"] {
		t.Fatalf("users = %v", users)
	}
}

func TestServerGracefulDrain(t *testing.T) {
	db := engine.New(vclock.DefaultModel(vclock.DRAM), 0)
	srv, addr := startServer(t, db, Options{})
	nc := dial(t, addr, "u", "")
	defer nc.Close()
	execSQL(t, nc, `CREATE TABLE t (id BIGINT, PRIMARY KEY (id))`)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// New connections are refused…
	if c, err := net.Dial("tcp", addr); err == nil {
		// The TCP connect may succeed before the OS observes the close;
		// the handshake must fail.
		h := Hello{User: "u"}
		WriteFrame(c, FrameHello, h.Encode())
		if _, _, err := ReadFrame(c); err == nil {
			t.Fatalf("handshake succeeded after shutdown")
		}
		c.Close()
	}
	// …and the drained connection is closed.
	nc.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, _, err := ReadFrame(nc); err == nil || err == io.EOF {
		_ = err // EOF or reset both acceptable; only a hang would be wrong
	}
}

// TestPullingClientRefused: a version 1 client, which pulls its rows
// with Fetch, is refused at Hello, and a Fetch sent anyway is an
// unknown frame that closes the connection.
func TestPullingClientRefused(t *testing.T) {
	db := engine.New(vclock.DefaultModel(vclock.DRAM), 0)
	_, addr := startServer(t, db, Options{})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer nc.Close()
	hello := Hello{User: "u"}
	v1 := hello.Encode()
	v1[0] = 1
	WriteFrame(nc, FrameHello, v1)
	typ, body, err := ReadFrame(nc)
	if err != nil || typ != FrameError {
		t.Fatalf("version 1 Hello: typ=0x%02x err=%v, want an Error frame", typ, err)
	}
	if msg, _ := NewReader(body).String(); !strings.Contains(msg, "protocol version 1 not supported") {
		t.Fatalf("error = %q", msg)
	}

	nc2 := dial(t, addr, "u", "")
	defer nc2.Close()
	nc2.SetReadDeadline(time.Now().Add(5 * time.Second))
	WriteFrame(nc2, FrameFetch, []byte{0x80, 0x20})
	typ, body, err = ReadFrame(nc2)
	if err != nil || typ != FrameError {
		t.Fatalf("stray Fetch: typ=0x%02x err=%v, want an Error frame", typ, err)
	}
	if msg, _ := NewReader(body).String(); !strings.Contains(msg, "unknown frame type 0x04") {
		t.Fatalf("error = %q", msg)
	}
	if _, _, err := ReadFrame(nc2); err == nil {
		t.Fatalf("connection still open after a stray Fetch")
	}
}

// TestHelloOptionCountBounded: the option count of a Hello is read off
// the wire before any authentication, so it must not size an
// allocation beyond what the frame's bytes can hold.
func TestHelloOptionCountBounded(t *testing.T) {
	db := engine.New(vclock.DefaultModel(vclock.DRAM), 0)
	_, addr := startServer(t, db, Options{})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer nc.Close()
	var b Builder
	b.Byte(ProtocolVersion)
	b.String("u")
	b.String("")
	b.Uvarint(1 << 22) // and no option bytes
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	WriteFrame(nc, FrameHello, b.Bytes())
	typ, _, err := ReadFrame(nc)
	runtime.ReadMemStats(&after)
	if err != nil || typ != FrameError {
		t.Fatalf("Hello with 1<<22 options: typ=0x%02x err=%v, want an Error frame", typ, err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("refusing the Hello allocated %d bytes", grew)
	}
}

// loadWide fills table wide(id, s) with rows whose 16 KiB strings add
// up to about 1.75 frames, more than loopback socket buffers hold, and
// returns the row count and the string.
func loadWide(t *testing.T, nc net.Conn, db *engine.Database) (int, string) {
	t.Helper()
	execSQL(t, nc, `CREATE TABLE wide (id BIGINT, s VARCHAR(16), PRIMARY KEY (id))`)
	pad := strings.Repeat("x", 16<<10)
	rows := make([]value.Row, MaxFrame/len(pad)*7/4)
	for i := range rows {
		rows[i] = value.Row{value.NewInt(int64(i)), value.NewString(pad)}
	}
	db.SessionManager().Lock() // as in TestServerSurvivesStatementPanic
	db.Table("wide").BulkLoad(nil, rows)
	db.SessionManager().Unlock()
	return len(rows), pad
}

// TestDrainAfterHeader: Shutdown begins once the client has the
// header of a two-frame result; the client still receives every row
// and the EOF batch before the connection closes.
func TestDrainAfterHeader(t *testing.T) {
	db := engine.New(vclock.DefaultModel(vclock.DRAM), 0)
	srv, addr := startServer(t, db, Options{})
	nc := dial(t, addr, "u", "")
	defer nc.Close()
	n, pad := loadWide(t, nc, db)

	nc.SetReadDeadline(time.Now().Add(20 * time.Second))
	writeExec(t, nc, `SELECT id, s FROM wide`)
	h := readHeader(t, nc)
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		done <- srv.Shutdown(ctx)
	}()
	for !srv.draining() {
		time.Sleep(time.Millisecond)
	}
	rows, frames := readRows(t, nc, h)
	if len(rows) != n || frames < 2 {
		t.Fatalf("%d rows in %d frames, want %d rows in at least 2", len(rows), frames, n)
	}
	for i, r := range rows {
		if r[0].Int() != int64(i) || r[1].Str() != pad {
			t.Fatalf("row %d = (%v, %d-byte string)", i, r[0], len(r[1].Str()))
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if _, _, err := ReadFrame(nc); err == nil {
		t.Fatalf("drained connection still open")
	}
}

// TestVanishedClient: a client that reads one RowBatch of a two-frame
// result and stops holds up no other session's statement, and once it
// closes, its connection and session go.
func TestVanishedClient(t *testing.T) {
	db := engine.New(vclock.DefaultModel(vclock.DRAM), 0)
	srv, addr := startServer(t, db, Options{})
	other := dial(t, addr, "other", "")
	defer other.Close()
	loadWide(t, other, db)

	nc := dial(t, addr, "gone", "")
	nc.SetReadDeadline(time.Now().Add(20 * time.Second))
	writeExec(t, nc, `SELECT id, s FROM wide`)
	readHeader(t, nc)
	typ, body, err := ReadFrame(nc)
	if err != nil || typ != FrameRowBatch {
		t.Fatalf("first batch: typ=0x%02x err=%v", typ, err)
	}
	if _, eof, err := DecodeRowBatch(body, 2, nil); err != nil || eof {
		t.Fatalf("first batch: eof %v, err %v; want a batch short of EOF", eof, err)
	}
	// The server may still be writing the rest of the reply.
	other.SetDeadline(time.Now().Add(5 * time.Second))
	if h, _ := execSQL(t, other, `INSERT INTO wide VALUES (-1, 'y')`); h.RowsAffected != 1 {
		t.Fatalf("insert beside a stalled reader: %d rows affected", h.RowsAffected)
	}
	nc.Close()

	deadline := time.Now().Add(10 * time.Second)
	for {
		srv.mu.Lock()
		conns := len(srv.conns)
		srv.mu.Unlock()
		sessions := len(db.Sessions())
		if conns == 1 && sessions == 2 { // other's, and the engine's local session
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d connections and %d sessions after the client vanished, want 1 and 2", conns, sessions)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if h, _ := execSQL(t, other, `INSERT INTO wide VALUES (-2, 'z')`); h.RowsAffected != 1 {
		t.Fatalf("insert after the client vanished: %d rows affected", h.RowsAffected)
	}
}

// FuzzWireFrame feeds arbitrary bytes through every frame decoder,
// the driver's row reader (RowReader) included:
// malformed or truncated input must produce errors, never panics or
// runaway allocation.
func FuzzWireFrame(f *testing.F) {
	// Seed with well-formed frames of each server type.
	h := ResultHeader{
		Columns:      []Column{{Name: "a", Kind: value.KindInt}},
		RowsAffected: 1,
		Metrics:      MetricsSummary{ExecUS: 10, Rows: 1},
	}
	f.Add(h.Encode())
	f.Add(EncodeSessions([]SessionRow{{ID: 1, User: "u", State: "idle", Statements: 2}}))
	var vb Builder
	vb.Value(value.NewInt(5))
	vb.Value(value.NewString("x"))
	vb.Value(value.Null)
	f.Add(vb.Bytes())
	batch, _ := EncodeRowBatch([]value.Row{{value.NewInt(1), value.NewString("x")}, {value.Null, value.NewBool(true)}})
	f.Add(batch)
	hello := Hello{User: "u", Token: "t", Options: map[string]string{"parallelism": "2"}}
	f.Add(hello.Encode())
	var fr bytes.Buffer
	WriteFrame(&fr, FrameExec, []byte{0, 3, 'a', 'b', 'c'})
	f.Add(fr.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		// Framed stream decode.
		typ, body, err := ReadFrame(bytes.NewReader(data))
		_ = typ
		if err == nil {
			_, _ = DecodeResultHeader(body)
			_, _ = DecodeSessions(body)
		}
		// Direct body decodes.
		_, _ = DecodeResultHeader(data)
		_, _ = DecodeSessions(data)
		_, _ = DecodeHello(data)
		for width := range 3 {
			_, _, _ = DecodeRowBatch(data, width, nil)
			// The driver's row reader: data is the result's one frame.
			fed := false
			rr := NewRowReader(width, func() ([]byte, error) {
				if fed {
					return nil, io.ErrUnexpectedEOF
				}
				fed = true
				return data, nil
			})
			for vals, err := rr.Next(); err == nil; vals, err = rr.Next() {
				for range width {
					if _, err = vals.Value(); err != nil {
						break
					}
				}
				if err != nil {
					break
				}
			}
		}
		r := NewReader(data)
		for {
			if _, err := r.Value(); err != nil {
				break
			}
			if r.Len() == 0 {
				break
			}
		}
	})
}
