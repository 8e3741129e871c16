package main

import (
	"encoding/binary"
	"net"
	"sync"
	"time"

	"hybriddb/internal/wire"
)

// tapListener wraps the benchmark's loopback listener so that a traced
// run can time the server from the socket boundary without touching it:
// each accepted connection follows the frames passing through it and
// records, per statement, when the request was fully read and when the
// last response byte was written.
type tapListener struct {
	net.Listener
	mu    sync.Mutex
	conns []*tapConn // in accept order
}

func (l *tapListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	tc := &tapConn{Conn: nc}
	l.mu.Lock()
	l.conns = append(l.conns, tc)
	l.mu.Unlock()
	return tc, nil
}

// tapped returns the connections accepted so far.
func (l *tapListener) tapped() []*tapConn {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]*tapConn(nil), l.conns...)
}

// tapStmt is the server side of one statement: the Exec frame and the
// Fetch frames that follow it.
type tapStmt struct {
	start, end time.Time     // Exec frame read → last response byte written
	busy       time.Duration // request read → response written, summed over frames
	bytesIn    int
	bytesOut   int
	frames     int // request frames
	writes     int // Write calls on the socket
}

// tapConn is one server-side connection. The server reads and writes it
// from a single goroutine; the mutex is for the benchmark reading the
// records afterwards.
type tapConn struct {
	net.Conn
	mu    sync.Mutex
	stmts []tapStmt

	// Position in the request stream: hdr collects the 4-byte length
	// prefix, then remaining counts the frame's bytes still to come.
	hdr       [4]byte
	hdrN      int
	remaining int
	frameType byte
	typeKnown bool
	frameIn   int

	reqDone time.Time // when the current request frame was fully read
	inStmt  bool
}

func (c *tapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		now := time.Now()
		c.mu.Lock()
		c.follow(p[:n], now)
		c.mu.Unlock()
	}
	return n, err
}

// follow advances the frame parser over bytes the server just read.
func (c *tapConn) follow(p []byte, now time.Time) {
	for len(p) > 0 {
		if c.remaining == 0 {
			k := copy(c.hdr[c.hdrN:], p)
			c.hdrN += k
			c.frameIn += k
			p = p[k:]
			if c.hdrN < 4 {
				return
			}
			c.hdrN = 0
			c.remaining = int(binary.BigEndian.Uint32(c.hdr[:]))
			c.typeKnown = false
			continue
		}
		if !c.typeKnown {
			c.frameType = p[0]
			c.typeKnown = true
		}
		k := len(p)
		if k > c.remaining {
			k = c.remaining
		}
		c.remaining -= k
		c.frameIn += k
		p = p[k:]
		if c.remaining == 0 {
			c.frameRead(now)
		}
	}
}

// frameRead notes a complete request frame. An Exec frame opens a
// statement; Fetch frames belong to the open one; anything else
// (Prepare, Ping, Quit) closes it.
func (c *tapConn) frameRead(now time.Time) {
	size := c.frameIn
	c.frameIn = 0
	switch c.frameType {
	case wire.FrameExec:
		c.stmts = append(c.stmts, tapStmt{start: now})
		c.inStmt = true
	case wire.FrameFetch:
	default:
		c.inStmt = false
	}
	if !c.inStmt {
		return
	}
	s := &c.stmts[len(c.stmts)-1]
	s.frames++
	s.bytesIn += size
	c.reqDone = now
}

func (c *tapConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	now := time.Now()
	c.mu.Lock()
	if c.inStmt {
		s := &c.stmts[len(c.stmts)-1]
		s.busy += now.Sub(c.reqDone)
		c.reqDone = now
		s.end = now
		s.bytesOut += n
		s.writes++
	}
	c.mu.Unlock()
	return n, err
}

// records returns the statements seen so far.
func (c *tapConn) records() []tapStmt {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]tapStmt(nil), c.stmts...)
}

// overlapShare is the share of [from, to] during which statements of
// both connections were being served.
func overlapShare(a, b []tapStmt, from, to time.Time) float64 {
	if !to.After(from) {
		return 0
	}
	var both time.Duration
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		lo, hi := a[i].start, a[i].end
		if b[j].start.After(lo) {
			lo = b[j].start
		}
		if b[j].end.Before(hi) {
			hi = b[j].end
		}
		if hi.After(lo) {
			both += hi.Sub(lo)
		}
		if a[i].end.Before(b[j].end) {
			i++
		} else {
			j++
		}
	}
	return both.Seconds() / to.Sub(from).Seconds()
}
