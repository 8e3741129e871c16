package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"hybriddb/internal/engine"
	"hybriddb/internal/exec"
	"hybriddb/internal/optimizer"
	"hybriddb/internal/plan"
	"hybriddb/internal/querystore"
	"hybriddb/internal/sql"
	"hybriddb/internal/value"
	"hybriddb/internal/vclock"
	"hybriddb/internal/wire"
)

// Span names, one per timed call into a layer's public functions.
const (
	spanStmt         = "stmt"                    // one statement through the in-process pipeline
	spanClientExec   = "hybridsql.exec"          // Client.Exec or database/sql query + Scan
	spanServer       = "wire.server"             // request frame read → last response byte written
	spanParse        = "sql.parse"               // sql.ParseOne
	spanBind         = "sql.bind"                // Binder.Bind*
	spanNormalize    = "sql.normalize"           // sql.Normalize
	spanOptimize     = "optimizer.optimize"      // optimizer.Optimize
	spanOptimizeWarm = "optimizer.optimize.warm" // Optimize again, statistics fresh
	spanExecute      = "exec.execute"            // exec.Execute
	spanExecStmt     = "engine.exec_stmt"        // Database.ExecStmt on a parsed statement
	spanRecord       = "querystore.record"       // Store.Record
	spanEncode       = "wire.encode"             // Builder.Value + WriteFrame over a result
	spanDecode       = "wire.decode"             // ReadFrame + Reader.Value over a result
)

// span is one timed call. Spans of one statement share Trace, the
// statement's sequence number in the stream.
type span struct {
	Trace  int       `json:"trace"`
	ID     int       `json:"span"`
	Parent int       `json:"parent"` // 0 for a root
	Name   string    `json:"name"`
	Start  int64     `json:"start_ns"`
	End    int64     `json:"end_ns"`
	SelfNS int64     `json:"self_ns"` // filled in when the trace is written
	Attrs  spanAttrs `json:"attrs"`
}

type spanAttrs struct {
	Workload string `json:"workload"`
	Kind     string `json:"kind,omitempty"`  // select, insert, update, delete
	Query    string `json:"query,omitempty"` // template name
	Rows     int64  `json:"rows"`
	Bytes    int64  `json:"bytes,omitempty"`
	// Class is the operator class of a SELECT's plan: join, agg, sort
	// or scan.
	Class     string `json:"class,omitempty"`
	VirtualNS int64  `json:"virtual_ns,omitempty"` // exec.execute: Metrics.ExecTime
	// AfterWrite marks the first SELECT on a table after DML on it.
	AfterWrite bool `json:"after_write,omitempty"`
	// Twin marks spans replayed on the twin database, Shadow a SELECT
	// run a second time through ExecStmt, Probe a call repeated only to
	// be timed. None of the three nests in time inside its parent.
	Twin   bool `json:"twin,omitempty"`
	Shadow bool `json:"shadow,omitempty"`
	Probe  bool `json:"probe,omitempty"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the workload ends. It is used from
// one goroutine: result_wire's two clients time themselves and their
// spans are added afterwards.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
}

func newTracer(workload string, capacity int) *tracer {
	return &tracer{workload: workload, t0: time.Now(), spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its id.
func (t *tracer) begin(trace, parent int, name string) int {
	t.spans = append(t.spans, span{Trace: trace, ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: int64(time.Since(t.t0)), Attrs: spanAttrs{Workload: t.workload}})
	return len(t.spans)
}

// end closes a span and returns it for its attributes to be set; the
// pointer is good until the next begin.
func (t *tracer) end(id int) *span {
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.t0))
	return s
}

// add records a span timed elsewhere (the socket tap, a result_wire
// client).
func (t *tracer) add(trace, parent int, name string, start, end time.Time) *span {
	id := t.begin(trace, parent, name)
	s := &t.spans[id-1]
	s.Start, s.End = int64(start.Sub(t.t0)), int64(end.Sub(t.t0))
	return s
}

// fillSelf sets every span's self time: its duration less its
// children's. Twin, shadow and probe children were timed apart from
// their parent, so the difference can come out negative by noise; it is
// floored at zero.
func (t *tracer) fillSelf() {
	child := make([]int64, len(t.spans)+1)
	for i := range t.spans {
		s := &t.spans[i]
		child[s.Parent] += int64(s.dur())
	}
	for i := range t.spans {
		s := &t.spans[i]
		s.SelfNS = int64(s.dur()) - child[s.ID]
		if s.SelfNS < 0 {
			s.SelfNS = 0
		}
	}
}

// write stores the spans as JSON lines in dir/trace-<workload>.jsonl.
func (t *tracer) write(dir string) error {
	t.fillSelf()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+t.workload+".jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// pipeline runs statements through the stages the engine runs, timed
// from outside: the traced stand-in for Database.Exec.
type pipeline struct {
	db *engine.Database
	tr *tracer
	qs *querystore.Store // the benchmark's own, to time Record on
	// dirty holds tables written since a SELECT last planned over them.
	dirty map[string]bool
	twin  bool
	// parents is, per statement, the span its pipeline hangs under: the
	// wire.server spans when replaying on a twin, nil when the
	// statements are roots.
	parents []int
}

func newPipeline(db *engine.Database, tr *tracer, twin bool) *pipeline {
	return &pipeline{db: db, tr: tr, qs: querystore.New(querystore.Options{}), dirty: map[string]bool{}, twin: twin}
}

func stmtKindName(st sql.Statement) string {
	switch st.(type) {
	case *sql.SelectStmt:
		return "select"
	case *sql.InsertStmt:
		return "insert"
	case *sql.UpdateStmt:
		return "update"
	case *sql.DeleteStmt:
		return "delete"
	}
	return "other"
}

// planClass is the operator class a SELECT's time is booked under.
func planClass(root *plan.Root) string {
	var join, agg, sorted bool
	plan.Walk(root.Input, func(n plan.Node) {
		switch n.(type) {
		case *plan.Join:
			join = true
		case *plan.Agg:
			agg = true
		case *plan.Sort, *plan.Top:
			sorted = true
		}
	})
	switch {
	case join:
		return "join"
	case agg:
		return "agg"
	case sorted:
		return "sort"
	}
	return "scan"
}

// exec runs one statement as trace seq and returns what Database.Exec
// would have. The stmt span covers exactly the work Exec does; the
// probes that follow it repeat calls the engine makes inside ExecStmt
// so that they can be timed on their own.
func (p *pipeline) exec(seq int, s *stmt) ([]value.Row, int64, error) {
	tr, db := p.tr, p.db
	var kind string
	mark := func(sp *span) {
		sp.Attrs.Kind, sp.Attrs.Query, sp.Attrs.Twin = kind, s.tmpl, p.twin
	}
	opts := optimizer.Options{Model: db.Model()}

	parent := 0
	if p.parents != nil {
		parent = p.parents[seq]
	}
	root := tr.begin(seq, parent, spanStmt)
	id := tr.begin(seq, root, spanParse)
	st, err := sql.ParseOne(s.sql)
	sp := tr.end(id)
	sp.Attrs.Bytes = int64(len(s.sql))
	if err != nil {
		tr.end(root)
		return nil, 0, err
	}
	kind = stmtKindName(st)
	mark(sp)

	var rows []value.Row
	var affected int64
	var res *engine.Result
	var pl *plan.Root
	var bound *sql.BoundSelect
	sel, isSelect := st.(*sql.SelectStmt)
	if isSelect {
		rows, pl, bound, err = p.selectStages(seq, root, sel, opts, mark)
	} else {
		id = tr.begin(seq, root, spanExecStmt)
		res, err = db.ExecStmt(st, engine.ExecOptions{})
		sp = tr.end(id)
		mark(sp)
		if err == nil {
			affected = res.RowsAffected
			sp.Attrs.Rows = affected
		}
	}
	sp = tr.end(root)
	mark(sp)
	sp.Attrs.Rows = int64(len(rows)) + affected
	if err != nil {
		return nil, 0, err
	}

	if isSelect {
		// The same SELECT once more through the engine's own entry
		// point: engine.overhead_us is this less the stages above.
		id = tr.begin(seq, 0, spanExecStmt)
		res, err = db.ExecStmt(st, engine.ExecOptions{})
		sp = tr.end(id)
		mark(sp)
		sp.Attrs.Shadow = true
		if err != nil {
			return nil, 0, err
		}
		sp.Attrs.Rows = int64(len(res.Rows))
		// The shadow run planned with whatever statistics the first run
		// had to rebuild; plan once more in that state to compare like
		// with like.
		sm := db.SessionManager()
		sm.RLock()
		id = tr.begin(seq, 0, spanOptimizeWarm)
		_, err = optimizer.Optimize(db, bound, opts)
		sp = tr.end(id)
		sm.RUnlock()
		mark(sp)
		sp.Attrs.Probe = true
		if err != nil {
			return nil, 0, err
		}
	} else {
		p.dmlProbe(seq, st, mark)
	}

	// The engine normalizes the text of every statement it records in
	// the query store, then records it.
	id = tr.begin(seq, 0, spanNormalize)
	norm, err := sql.Normalize(s.sql)
	sp = tr.end(id)
	mark(sp)
	sp.Attrs.Probe = true
	if err != nil {
		return nil, 0, err
	}
	shape := kind
	if pl != nil {
		shape = plan.Shape(pl)
	}
	e := querystore.Execution{SQL: s.sql, Norm: norm, Kind: kind, Shape: shape,
		Metrics: res.Metrics, RowsAffected: res.RowsAffected, SessionID: 1,
		Stages: querystore.Stages{Exec: res.Metrics.ExecTime}, Trace: res.Trace}
	id = tr.begin(seq, 0, spanRecord)
	p.qs.Record(e)
	sp = tr.end(id)
	mark(sp)
	sp.Attrs.Probe = true
	return rows, affected, nil
}

// selectStages binds, optimizes and executes a SELECT under the shared
// statement lock, as engine.execSelect does.
func (p *pipeline) selectStages(seq, root int, sel *sql.SelectStmt, opts optimizer.Options, mark func(*span)) ([]value.Row, *plan.Root, *sql.BoundSelect, error) {
	tr, db := p.tr, p.db
	sm := db.SessionManager()
	sm.RLock()
	defer sm.RUnlock()

	id := tr.begin(seq, root, spanBind)
	bound, err := sql.NewBinder(db).BindSelect(sel)
	sp := tr.end(id)
	mark(sp)
	if err != nil {
		return nil, nil, nil, err
	}

	afterWrite := false
	for _, bt := range bound.Tables {
		if p.dirty[bt.Ref.Table] {
			afterWrite = true
			delete(p.dirty, bt.Ref.Table)
		}
	}
	id = tr.begin(seq, root, spanOptimize)
	pl, err := optimizer.Optimize(db, bound, opts)
	sp = tr.end(id)
	mark(sp)
	sp.Attrs.AfterWrite = afterWrite
	if err != nil {
		return nil, nil, nil, err
	}
	class := planClass(pl)

	id = tr.begin(seq, root, spanExecute)
	res, err := exec.Execute(vclock.NewTracker(db.Model()), pl, bound.TotalSlots, exec.RunOptions{Workers: 1})
	sp = tr.end(id)
	mark(sp)
	sp.Attrs.Class = class
	if err != nil {
		return nil, nil, nil, err
	}
	sp.Attrs.Rows = int64(len(res.Rows))
	sp.Attrs.VirtualNS = int64(res.Metrics.ExecTime)
	return res.Rows, pl, bound, nil
}

// dmlProbe repeats the binding ExecStmt did inside itself for a write,
// to time it, and notes the table as written. The access-path choice
// (optimizer.ChooseDMLScan) is not repeated: it rebuilds the table's
// histograms when they are stale, so calling it from outside would take
// that cost away from the statement that really pays it.
func (p *pipeline) dmlProbe(seq int, st sql.Statement, mark func(*span)) {
	db := p.db
	sm := db.SessionManager()
	sm.RLock()
	defer sm.RUnlock()
	binder := sql.NewBinder(db)
	var table string
	id := p.tr.begin(seq, 0, spanBind)
	switch v := st.(type) {
	case *sql.InsertStmt:
		if b, err := binder.BindInsert(v); err == nil {
			table = b.Table
		}
	case *sql.UpdateStmt:
		if b, err := binder.BindUpdate(v); err == nil {
			table = b.Table
		}
	case *sql.DeleteStmt:
		if b, err := binder.BindDelete(v); err == nil {
			table = b.Table
		}
	}
	sp := p.tr.end(id)
	mark(sp)
	sp.Attrs.Probe = true
	if table != "" {
		p.dirty[table] = true
	}
}

// wireProbes times encoding a result's rows into RowBatch frames the
// way the server's fetch handler does, and decoding them the way the
// client does.
func wireProbes(tr *tracer, seq, parent int, s *stmt, rows []value.Row) error {
	if len(rows) == 0 {
		return nil
	}
	const batch = 4096 // the client's fetch size
	var frames [][]byte
	id := tr.begin(seq, parent, spanEncode)
	for lo := 0; lo < len(rows); lo += batch {
		hi := lo + batch
		if hi > len(rows) {
			hi = len(rows)
		}
		var b wire.Builder
		b.Byte(0)
		b.Uvarint(uint64(hi - lo))
		for _, r := range rows[lo:hi] {
			for _, v := range r {
				b.Value(v)
			}
		}
		var buf frameBuffer
		if err := wire.WriteFrame(&buf, wire.FrameRowBatch, b.Bytes()); err != nil {
			return err
		}
		frames = append(frames, buf.b)
	}
	sp := tr.end(id)
	sp.Attrs.Query, sp.Attrs.Rows, sp.Attrs.Probe = s.tmpl, int64(len(rows)), true

	width := len(rows[0])
	id = tr.begin(seq, parent, spanDecode)
	for _, f := range frames {
		buf := frameBuffer{b: f}
		_, body, err := wire.ReadFrame(&buf)
		if err != nil {
			return err
		}
		r := wire.NewReader(body)
		if _, err := r.Byte(); err != nil {
			return err
		}
		n, err := r.Uvarint()
		if err != nil {
			return err
		}
		for i := uint64(0); i < n; i++ {
			row := make(value.Row, 0, width)
			for c := 0; c < width; c++ {
				v, err := r.Value()
				if err != nil {
					return err
				}
				row = append(row, v)
			}
		}
	}
	sp = tr.end(id)
	sp.Attrs.Query, sp.Attrs.Rows, sp.Attrs.Probe = s.tmpl, int64(len(rows)), true
	return nil
}

// frameBuffer is the in-memory socket of wireProbes.
type frameBuffer struct {
	b   []byte
	off int
}

func (f *frameBuffer) Write(p []byte) (int, error) {
	f.b = append(f.b, p...)
	return len(p), nil
}

func (f *frameBuffer) Read(p []byte) (int, error) {
	if f.off >= len(f.b) {
		return 0, fmt.Errorf("frameBuffer: read past the end")
	}
	n := copy(p, f.b[f.off:])
	f.off += n
	return n, nil
}
