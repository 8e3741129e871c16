package wire

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hybriddb/internal/engine"
	"hybriddb/internal/metrics"
	"hybriddb/internal/session"
	"hybriddb/internal/value"
)

// Wire-server observability (see OBSERVABILITY.md).
var (
	mConnsAccepted = metrics.NewCounter("wire_connections_accepted_total",
		"wire connections accepted by the server")
	mConnsActive = metrics.NewGauge("wire_connections_active",
		"wire connections currently open")
	mFrames = metrics.NewCounter("wire_frames_total",
		"request frames processed by the server")
	mWireErrors = metrics.NewCounter("wire_protocol_errors_total",
		"error frames sent to clients (statement and protocol errors)")
)

// Options configure a Server.
type Options struct {
	// Token is a shared-secret: when non-empty, Hello frames must carry
	// it or the connection is rejected.
	Token string
	// AdmissionLimit, when positive, bounds concurrently-executing
	// statements via the engine's admission controller (applied at
	// Serve).
	AdmissionLimit int
}

// Server serves the wire protocol over an engine database. One
// goroutine per connection; each connection is bound to one engine
// session for its lifetime.
type Server struct {
	db   *engine.Database
	opts Options

	mu     sync.Mutex
	ln     net.Listener
	conns  map[*conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer creates a server over db.
func NewServer(db *engine.Database, opts Options) *Server {
	return &Server{db: db, opts: opts, conns: make(map[*conn]struct{})}
}

// Serve accepts connections on ln until Shutdown (or a fatal listener
// error). It blocks; run it on its own goroutine.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("wire: server is shut down")
	}
	s.ln = ln
	s.mu.Unlock()
	if s.opts.AdmissionLimit > 0 {
		s.db.SetAdmissionLimit(s.opts.AdmissionLimit)
	}
	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		c := &conn{srv: s, nc: nc}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			return nil
		}
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		mConnsAccepted.Inc()
		mConnsActive.Add(1)
		go c.serve()
	}
}

// ListenAndServe listens on addr (TCP) and serves.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Addr returns the listener address, or nil before Serve.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Shutdown gracefully drains the server: the listener closes
// immediately, idle connections are closed, and busy connections finish
// their in-flight statement before closing. When ctx expires first,
// remaining connections are force-closed.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	if s.ln != nil {
		s.ln.Close()
	}
	for c := range s.conns {
		if !c.busy.Load() {
			c.nc.Close() // idle: unblock its ReadFrame now
		}
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			c.nc.Close()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// draining reports whether Shutdown has begun.
func (s *Server) draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// conn is one client connection: a network socket bound to an engine
// session, with at most one open result cursor.
type conn struct {
	srv  *Server
	nc   net.Conn
	sess *session.Session
	busy atomic.Bool // a request frame is being processed

	// pending is the open cursor: rows the last Exec produced that the
	// client has not fetched yet.
	pending []value.Row
	fetched int
}

func (c *conn) serve() {
	defer func() {
		if c.sess != nil {
			c.srv.db.CloseSession(c.sess)
		}
		c.nc.Close()
		c.srv.mu.Lock()
		delete(c.srv.conns, c)
		c.srv.mu.Unlock()
		mConnsActive.Add(-1)
		c.srv.wg.Done()
	}()
	if err := c.handshake(); err != nil {
		return
	}
	for {
		typ, body, err := ReadFrame(c.nc)
		if err != nil {
			return
		}
		c.busy.Store(true)
		mFrames.Inc()
		err = c.handle(typ, body)
		c.busy.Store(false)
		if err != nil || typ == FrameQuit {
			return
		}
		// Graceful drain: finish the statement just handled, then close
		// instead of reading the next request.
		if c.srv.draining() {
			return
		}
	}
}

// handshake authenticates the first frame and opens the engine session.
func (c *conn) handshake() error {
	c.nc.SetReadDeadline(time.Now().Add(30 * time.Second))
	typ, body, err := ReadFrame(c.nc)
	if err != nil {
		return err
	}
	c.nc.SetReadDeadline(time.Time{})
	if typ != FrameHello {
		c.sendError(fmt.Errorf("wire: expected Hello, got frame 0x%02x", typ))
		return errors.New("wire: bad handshake")
	}
	r := NewReader(body)
	ver, err := r.Byte()
	if err != nil {
		c.sendError(err)
		return err
	}
	if ver != ProtocolVersion {
		err := fmt.Errorf("wire: protocol version %d not supported (server speaks %d)", ver, ProtocolVersion)
		c.sendError(err)
		return err
	}
	user, err := r.String()
	if err != nil {
		c.sendError(err)
		return err
	}
	token, err := r.String()
	if err != nil {
		c.sendError(err)
		return err
	}
	if c.srv.opts.Token != "" && token != c.srv.opts.Token {
		err := errors.New("wire: authentication failed")
		c.sendError(err)
		return err
	}
	nopts, err := r.Uvarint()
	if err != nil {
		c.sendError(err)
		return err
	}
	opts := make(map[string]string, nopts)
	for i := uint64(0); i < nopts; i++ {
		k, err := r.String()
		if err != nil {
			c.sendError(err)
			return err
		}
		v, err := r.String()
		if err != nil {
			c.sendError(err)
			return err
		}
		opts[k] = v
	}
	if user == "" {
		user = "anonymous"
	}
	c.sess = c.srv.db.OpenSession(user)
	if eo, err := execOptionsFrom(opts); err != nil {
		c.srv.db.CloseSession(c.sess)
		c.sess = nil
		c.sendError(err)
		return err
	} else {
		c.sess.SetDefaults(eo)
	}
	var b Builder
	b.Uvarint(uint64(c.sess.ID()))
	return WriteFrame(c.nc, FrameHelloOK, b.Bytes())
}

// execOptionsFrom maps handshake option pairs onto per-session
// ExecOptions defaults.
func execOptionsFrom(opts map[string]string) (session.ExecOptions, error) {
	var eo session.ExecOptions
	for k, v := range opts {
		switch k {
		case "parallelism":
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return eo, fmt.Errorf("wire: bad parallelism %q", v)
			}
			eo.Parallelism = n
		case "mem_grant":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil || n < 0 {
				return eo, fmt.Errorf("wire: bad mem_grant %q", v)
			}
			eo.MemGrant = n
		case "no_columnstore":
			eo.NoColumnstore = v == "1" || v == "true"
		default:
			return eo, fmt.Errorf("wire: unknown connection option %q", k)
		}
	}
	return eo, nil
}

// handle dispatches one post-handshake request frame. A returned error
// means the connection is unusable (write failure or protocol breach);
// statement errors are reported to the client and keep the connection
// alive.
func (c *conn) handle(typ byte, body []byte) error {
	switch typ {
	case FramePing:
		return WriteFrame(c.nc, FramePong, nil)
	case FrameQuit:
		return WriteFrame(c.nc, FrameDone, nil)
	case FramePrepare:
		r := NewReader(body)
		sqlText, err := r.String()
		if err != nil {
			return c.protoError(err)
		}
		p, err := c.sess.Prepare(sqlText)
		if err != nil {
			return c.sendError(err)
		}
		var b Builder
		b.Uvarint(uint64(p.ID))
		return WriteFrame(c.nc, FramePrepareOK, b.Bytes())
	case FrameCloseStmt:
		r := NewReader(body)
		id, err := r.Uvarint()
		if err != nil {
			return c.protoError(err)
		}
		if !c.sess.ClosePrepared(int64(id)) {
			return c.sendError(fmt.Errorf("wire: unknown prepared statement %d", id))
		}
		return WriteFrame(c.nc, FrameDone, nil)
	case FrameExec:
		return c.handleExec(body)
	case FrameFetch:
		return c.handleFetch(body)
	case FrameSessions:
		infos := c.srv.db.Sessions()
		rows := make([]SessionRow, len(infos))
		for i, s := range infos {
			rows[i] = SessionRow{ID: s.ID, User: s.User, State: s.State, Statements: s.Statements}
		}
		return WriteFrame(c.nc, FrameSessionsOK, EncodeSessions(rows))
	default:
		return c.protoError(fmt.Errorf("wire: unknown frame type 0x%02x", typ))
	}
}

func (c *conn) handleExec(body []byte) error {
	r := NewReader(body)
	mode, err := r.Byte()
	if err != nil {
		return c.protoError(err)
	}
	var res *engine.Result
	switch mode {
	case 0: // direct SQL text
		sqlText, err := r.String()
		if err != nil {
			return c.protoError(err)
		}
		res, err = c.srv.db.ExecSession(c.sess, sqlText, c.sess.Defaults())
		if err != nil {
			return c.sendError(err)
		}
	case 1: // prepared statement by id
		id, err := r.Uvarint()
		if err != nil {
			return c.protoError(err)
		}
		p, ok := c.sess.Prepared(int64(id))
		if !ok {
			return c.sendError(fmt.Errorf("wire: unknown prepared statement %d", id))
		}
		res, err = c.srv.db.ExecPrepared(c.sess, p, c.sess.Defaults())
		if err != nil {
			return c.sendError(err)
		}
	default:
		return c.protoError(fmt.Errorf("wire: unknown exec mode %d", mode))
	}

	c.pending = res.Rows
	c.fetched = 0
	h := ResultHeader{
		RowsAffected: res.RowsAffected,
		Metrics: MetricsSummary{
			ExecUS:    res.Metrics.ExecTime.Microseconds(),
			CPUUS:     res.Metrics.CPUTime.Microseconds(),
			DataRead:  res.Metrics.DataRead,
			DataWrite: res.Metrics.DataWrite,
			MemPeak:   res.Metrics.MemPeak,
			DOP:       int64(res.Metrics.DOP),
			Rows:      res.Metrics.Rows,
		},
	}
	for ci, name := range res.Columns {
		h.Columns = append(h.Columns, Column{Name: name, Kind: columnKind(res.Rows, ci)})
	}
	return WriteFrame(c.nc, FrameResultHeader, h.Encode())
}

// columnKind picks the first non-NULL kind in a column — advisory
// metadata for driver ColumnTypes; values stay self-describing.
func columnKind(rows []value.Row, ci int) value.Kind {
	for _, r := range rows {
		if ci < len(r) && !r[ci].IsNull() {
			return r[ci].Kind()
		}
	}
	return value.KindNull
}

func (c *conn) handleFetch(body []byte) error {
	r := NewReader(body)
	want, err := r.Uvarint()
	if err != nil {
		return c.protoError(err)
	}
	if want == 0 || want > 1<<16 {
		want = 1 << 16
	}
	var b Builder
	rest := c.pending[c.fetched:]
	n := int(want)
	if n > len(rest) {
		n = len(rest)
	}
	// Respect MaxFrame: stop early if the batch would overflow (the
	// client just fetches again).
	count := 0
	var rows Builder
	for i := 0; i < n; i++ {
		mark := len(rows.buf)
		for _, v := range rest[i] {
			rows.Value(v)
		}
		if len(rows.buf) > MaxFrame-64 && count > 0 {
			rows.buf = rows.buf[:mark]
			break
		}
		count++
	}
	c.fetched += count
	eof := byte(0)
	if c.fetched >= len(c.pending) {
		eof = 1
		c.pending = nil
		c.fetched = 0
	}
	b.Byte(eof)
	b.Uvarint(uint64(count))
	b.buf = append(b.buf, rows.buf...)
	return WriteFrame(c.nc, FrameRowBatch, b.Bytes())
}

// sendError reports a statement-level error; the connection stays
// usable.
func (c *conn) sendError(err error) error {
	mWireErrors.Inc()
	var b Builder
	b.String(err.Error())
	return WriteFrame(c.nc, FrameError, b.Bytes())
}

// protoError reports a malformed frame and signals the caller to drop
// the connection.
func (c *conn) protoError(err error) error {
	c.sendError(err)
	return err
}
