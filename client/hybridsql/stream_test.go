package hybridsql

import (
	"context"
	"database/sql"
	"errors"
	"net"
	"strings"
	"testing"

	"hybriddb/internal/engine"
	"hybriddb/internal/value"
	"hybriddb/internal/vclock"
	"hybriddb/internal/wire"
)

// wideDB serves a table wide(id, s) whose 16 KiB strings add up to
// about 1.75 RowBatch frames, and returns the engine, a database/sql
// handle on the server and the row count.
func wideDB(t *testing.T) (*engine.Database, *sql.DB, int) {
	t.Helper()
	edb := engine.New(vclock.DefaultModel(vclock.DRAM), 0)
	if _, err := edb.Exec(`CREATE TABLE wide (id BIGINT, s VARCHAR(16), PRIMARY KEY (id))`); err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat("x", 16<<10)
	rows := make([]value.Row, wire.MaxFrame/len(pad)*7/4)
	for i := range rows {
		rows[i] = value.Row{value.NewInt(int64(i)), value.NewString(pad)}
	}
	edb.Table("wide").BulkLoad(nil, rows)
	sdb, err := sql.Open("hybrid", "hybrid://tester@"+startServer(t, edb, wire.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sdb.Close() })
	return edb, sdb, len(rows)
}

// TestDriverMultiFrameResult: a result of two RowBatch frames read
// through database/sql equals the in-process Result.Rows.
func TestDriverMultiFrameResult(t *testing.T) {
	edb, sdb, n := wideDB(t)
	const q = `SELECT id, s FROM wide`
	ref, err := edb.Exec(q)
	if err != nil || len(ref.Rows) != n {
		t.Fatalf("in-process: %d rows, err %v; want %d", len(ref.Rows), err, n)
	}
	rows, err := sdb.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	i := 0
	for ; rows.Next(); i++ {
		var id int64
		var s string
		if err := rows.Scan(&id, &s); err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		if i >= n || id != ref.Rows[i][0].Int() || s != ref.Rows[i][1].Str() {
			t.Fatalf("row %d = (%d, %d-byte string), want the in-process row", i, id, len(s))
		}
	}
	if err := rows.Err(); err != nil || i != n {
		t.Fatalf("%d rows, err %v; want %d", i, err, n)
	}
}

// TestRowsCloseMidResult: closing a multi-frame result after one row
// reads the rest of its frames, so the next query on the same
// connection gets its own reply.
func TestRowsCloseMidResult(t *testing.T) {
	_, sdb, n := wideDB(t)
	ctx := context.Background()
	c, err := sdb.Conn(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for round := range 2 {
		rows, err := c.QueryContext(ctx, `SELECT id, s FROM wide`)
		if err != nil {
			t.Fatal(err)
		}
		var id int64
		var s string
		if !rows.Next() || rows.Scan(&id, &s) != nil || id != 0 {
			t.Fatalf("round %d: first row id %d, err %v", round, id, rows.Err())
		}
		if err := rows.Close(); err != nil {
			t.Fatalf("round %d: Close: %v", round, err)
		}
		var count, maxID int64
		if err := c.QueryRowContext(ctx, `SELECT count(*), max(id) FROM wide`).Scan(&count, &maxID); err != nil {
			t.Fatalf("round %d: query after Close: %v", round, err)
		}
		if count != int64(n) || maxID != int64(n-1) {
			t.Fatalf("round %d: count %d, max %d after Close; want %d, %d", round, count, maxID, n, n-1)
		}
	}
}

// TestRequestWhileResultOpen: on one connection, a query, a ping, a
// prepare and a statement close made while a multi-frame result is
// still open fail without touching the socket, the open result still
// reads right to its end, and the connection then serves the next
// query.
func TestRequestWhileResultOpen(t *testing.T) {
	edb, sdb, n := wideDB(t)
	ref, err := edb.Exec(`SELECT id, s FROM wide`)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	c, err := sdb.Conn(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := c.PrepareContext(ctx, `SELECT max(id) FROM wide`)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := c.QueryContext(ctx, `SELECT id, s FROM wide`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	i := 0
	for ; rows.Next(); i++ {
		var id int64
		var s string
		if err := rows.Scan(&id, &s); err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		if i >= n || id != ref.Rows[i][0].Int() || s != ref.Rows[i][1].Str() {
			t.Fatalf("row %d = (%d, %d-byte string), want the in-process row", i, id, len(s))
		}
		if i != 0 && i != n-2 { // once in the first frame, once in the last
			continue
		}
		var count int64
		if err := c.QueryRowContext(ctx, `SELECT count(*) FROM wide`).Scan(&count); !errors.Is(err, errResultOpen) {
			t.Fatalf("row %d: nested query: count %d, err %v; want %v", i, count, err, errResultOpen)
		}
		if err := c.PingContext(ctx); !errors.Is(err, errResultOpen) {
			t.Fatalf("row %d: ping: %v; want %v", i, err, errResultOpen)
		}
		if _, err := c.PrepareContext(ctx, `SELECT 1`); !errors.Is(err, errResultOpen) {
			t.Fatalf("row %d: prepare: %v; want %v", i, err, errResultOpen)
		}
		if i == n-2 {
			if err := st.Close(); !errors.Is(err, errResultOpen) {
				t.Fatalf("row %d: statement close: %v; want %v", i, err, errResultOpen)
			}
		}
	}
	if err := rows.Err(); err != nil || i != n {
		t.Fatalf("%d rows, err %v; want %d", i, err, n)
	}
	var count int64
	if err := c.QueryRowContext(ctx, `SELECT count(*) FROM wide`).Scan(&count); err != nil || count != int64(n) {
		t.Fatalf("query after the result: count %d, err %v; want %d", count, err, n)
	}
	if err := c.PingContext(ctx); err != nil {
		t.Fatalf("ping after the result: %v", err)
	}
}

// TestTruncatedRowBatch: a RowBatch whose values stop short surfaces as
// rows.Err(), and the connection it came on is not reused.
func TestTruncatedRowBatch(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		var id wire.Builder
		id.Uvarint(1)
		h := wire.ResultHeader{Columns: []wire.Column{{Name: "a", Kind: value.KindInt}}}
		var batch wire.Builder
		batch.Byte(1)    // EOF
		batch.Uvarint(3) // three rows, of which one and a half follow
		batch.Value(value.NewInt(1))
		batch.Byte(1) // an int tag with 1 of its 8 bytes
		batch.Byte(0)
		batch.Value(value.Null)
		for {
			typ, _, err := wire.ReadFrame(nc)
			if err != nil {
				return
			}
			switch typ {
			case wire.FrameHello:
				wire.WriteFrame(nc, wire.FrameHelloOK, id.Bytes())
			case wire.FramePrepare:
				wire.WriteFrame(nc, wire.FramePrepareOK, id.Bytes())
			case wire.FrameExec:
				wire.WriteFrame(nc, wire.FrameResultHeader, h.Encode())
				wire.WriteFrame(nc, wire.FrameRowBatch, batch.Bytes())
			default:
				wire.WriteFrame(nc, wire.FrameDone, nil)
			}
		}
	}()
	sdb, err := sql.Open("hybrid", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer sdb.Close()
	rows, err := sdb.Query(`SELECT a FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	var got []int64
	for rows.Next() {
		var a int64
		if err := rows.Scan(&a); err != nil {
			t.Fatal(err)
		}
		got = append(got, a)
	}
	if err := rows.Err(); err == nil || len(got) != 1 {
		t.Fatalf("rows %v, err %v; want one row, then an error", got, err)
	}
	rows.Close()
	if n := sdb.Stats().OpenConnections; n != 0 {
		t.Fatalf("%d connections open after a truncated result, want 0", n)
	}
}
