// Package engine is the database façade: a catalog of tables over one
// simulated store, a SQL front end (parse → bind → optimize → execute),
// DDL for the full hybrid design space, and DML that maintains every
// physical structure. Each statement execution returns the metrics the
// paper collects (execution time, CPU time, data read, memory, DOP).
package engine

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hybriddb/internal/exec"
	"hybriddb/internal/metrics"
	"hybriddb/internal/optimizer"
	"hybriddb/internal/plan"
	"hybriddb/internal/querystore"
	"hybriddb/internal/session"
	"hybriddb/internal/sql"
	"hybriddb/internal/storage"
	"hybriddb/internal/table"
	"hybriddb/internal/value"
	"hybriddb/internal/vclock"
)

// Engine-level observability counters, shared by every Database in the
// process (see OBSERVABILITY.md for the full catalog).
var (
	mStatements  = metrics.NewCounter("hybriddb_statements_total", "SQL statements executed")
	mStmtErrors  = metrics.NewCounter("hybriddb_statement_errors_total", "SQL statements that returned an error")
	mStmtPanics  = metrics.NewCounter("hybriddb_statement_panics_total", "SQL statements that panicked and were failed at the statement boundary")
	mDataRead    = metrics.NewCounter("hybriddb_data_read_bytes_total", "virtual bytes read by statements")
	mDataWritten = metrics.NewCounter("hybriddb_data_written_bytes_total", "virtual bytes written by statements")
	mExecSeconds = metrics.NewHistogram("hybriddb_query_exec_seconds", "virtual statement execution time")
	mSlowQueries = metrics.NewCounter("hybriddb_slow_queries_total", "statements over the slow-query threshold")
)

// Database is one database instance.
type Database struct {
	store  *storage.Store
	model  *vclock.Model
	tables map[string]*table.Table
	// DefaultRowGroupSize applies to columnstores created via SQL DDL
	// (0 = colstore default).
	DefaultRowGroupSize int
	// DefaultParallelism is the worker budget for statements that do not
	// set ExecOptions.Parallelism: 0 picks automatically (GOMAXPROCS
	// when the buffer pool is unbounded, serial otherwise), 1 forces
	// serial, N caps the pool at N workers.
	DefaultParallelism int

	// sm owns the statement-boundary lock (SELECT and EXPLAIN take the
	// shared side, everything else the exclusive side), the session
	// registry, and the admission controller (see internal/session).
	// Catalog accessors (Table, TableSchema, ResolveTable) stay
	// lock-free — they are only called under a statement's lock.
	sm *session.Manager
	// local is the implicit session the library path (Exec/ExecStmt)
	// runs on; wire connections open their own via OpenSession.
	local *session.Session

	slowMu        sync.Mutex
	slowW         io.Writer
	slowThreshold time.Duration

	// qs, when non-nil, captures every statement execution into the
	// query store (see internal/querystore). Atomic so readers under the
	// shared lock never contend with EnableQueryStore.
	qs atomic.Pointer[querystore.Store]

	// mover is the background tuple mover, when enabled (see mover.go).
	// highWater is the delta high-water policy applied to every
	// columnstore: nil keeps the legacy synchronous inline compaction,
	// otherwise inserts crossing the rowgroup boundary invoke it instead
	// of compressing inline. Both are guarded by the statement lock
	// (sm).
	mover     *TupleMover
	highWater func()
}

// New creates a database with the given cost model and buffer pool
// size in bytes (0 = unbounded pool).
func New(model *vclock.Model, poolBytes int64) *Database {
	sm := session.NewManager()
	return &Database{
		store:  storage.NewStore(poolBytes),
		model:  model,
		tables: make(map[string]*table.Table),
		sm:     sm,
		local:  sm.Open("local"),
	}
}

// SessionManager exposes the session/admission layer (the wire server
// binds connections to it).
func (db *Database) SessionManager() *session.Manager { return db.sm }

// OpenSession registers a new session for user. The caller owns its
// lifetime and must CloseSession it.
func (db *Database) OpenSession(user string) *session.Session { return db.sm.Open(user) }

// CloseSession deregisters a session opened with OpenSession.
func (db *Database) CloseSession(s *session.Session) { db.sm.Close(s) }

// Sessions snapshots every open session (the implicit local session
// included), ordered by id.
func (db *Database) Sessions() []session.Info { return db.sm.Sessions() }

// SetAdmissionLimit bounds how many statements may execute (or hold
// the statement lock) concurrently; excess statements queue FIFO and
// their wait is charged to the query store's lockwait stage. 0 (the
// default) leaves admission unbounded, preserving the pure-library
// behavior.
func (db *Database) SetAdmissionLimit(n int) { db.sm.SetLimit(n) }

// Store returns the underlying store (hot/cold control).
func (db *Database) Store() *storage.Store { return db.store }

// Model returns the cost model in use.
func (db *Database) Model() *vclock.Model { return db.model }

// SetModel swaps the cost model (e.g. HDD vs DRAM data device).
func (db *Database) SetModel(m *vclock.Model) { db.model = m }

// Table returns a table by name, or nil.
func (db *Database) Table(name string) *table.Table { return db.tables[name] }

// Tables lists every table.
func (db *Database) Tables() map[string]*table.Table { return db.tables }

// SetSlowQueryLog enables the slow-query log: statements whose virtual
// execution time meets or exceeds threshold are appended to w as JSON
// lines. A nil writer or non-positive threshold disables it.
func (db *Database) SetSlowQueryLog(w io.Writer, threshold time.Duration) {
	db.slowMu.Lock()
	defer db.slowMu.Unlock()
	db.slowW = w
	db.slowThreshold = threshold
}

// EnableQueryStore attaches a query store: every statement executed
// from now on is normalized, fingerprinted with its plan shape, and
// folded into per-fingerprint statistics. Returns the store so callers
// can export or serve it. Enabling the store forces per-operator
// traces on SELECTs (virtual metrics are unaffected).
func (db *Database) EnableQueryStore(opts querystore.Options) *querystore.Store {
	s := querystore.New(opts)
	db.qs.Store(s)
	return s
}

// DisableQueryStore detaches the query store (existing contents stay
// readable through the returned store, new executions are dropped).
func (db *Database) DisableQueryStore() { db.qs.Store(nil) }

// QueryStore returns the attached query store, or nil.
func (db *Database) QueryStore() *querystore.Store { return db.qs.Load() }

// QueryStats snapshots the query store's per-fingerprint statistics
// (nil when no store is attached).
func (db *Database) QueryStats() []querystore.QueryStats {
	s := db.qs.Load()
	if s == nil {
		return nil
	}
	return s.Snapshot()
}

// CreateTable registers a new table. clusterKeys non-nil builds a
// clustered B+ tree primary on those ordinals; nil leaves a heap.
func (db *Database) CreateTable(name string, schema *value.Schema, clusterKeys []int) (*table.Table, error) {
	db.sm.Lock()
	defer db.sm.Unlock()
	return db.createTable(name, schema, clusterKeys)
}

func (db *Database) createTable(name string, schema *value.Schema, clusterKeys []int) (*table.Table, error) {
	if _, dup := db.tables[name]; dup {
		return nil, fmt.Errorf("engine: table %q already exists", name)
	}
	t := table.New(db.store, name, schema, clusterKeys)
	if db.DefaultRowGroupSize > 0 {
		t.SetRowGroupSize(db.DefaultRowGroupSize)
	}
	if clusterKeys != nil {
		t.ConvertPrimary(nil, table.PrimaryBTree, clusterKeys)
	}
	db.tables[name] = t
	return t, nil
}

// TableSchema implements sql.Catalog.
func (db *Database) TableSchema(name string) (*value.Schema, bool) {
	t, ok := db.tables[name]
	if !ok {
		return nil, false
	}
	return t.Schema, true
}

// ResolveTable implements optimizer.Resolver.
func (db *Database) ResolveTable(name string) (*table.Table, bool) {
	t, ok := db.tables[name]
	return t, ok
}

// LockDemand summarizes the locks a statement acquired, consumed by
// the concurrency simulator.
type LockDemand struct {
	Table     string
	Exclusive bool
	Rows      int64
}

// Result is the outcome of one statement.
type Result struct {
	Columns      []string
	Rows         []value.Row
	RowsAffected int64
	Metrics      vclock.Metrics
	Plan         *plan.Root
	Locks        []LockDemand
	// Trace is the per-operator execution trace: a synthetic root whose
	// children are the plan's operators. Set for EXPLAIN ANALYZE, and
	// for plain SELECTs while a query store is attached.
	Trace *metrics.TraceNode
}

// ExecOptions tune one statement execution. The definition lives in
// internal/session (a session owns its per-connection defaults); the
// alias keeps every existing engine call site source-compatible.
type ExecOptions = session.ExecOptions

// workers resolves the real worker budget for one statement. Automatic
// selection uses every core, but only when the buffer pool is
// unbounded: under a bounded LRU pool, concurrent workers would evict
// pages in an interleaving-dependent order and the virtual I/O
// accounting would stop being deterministic. The automatic pick is
// clamped to the plan's morsel count, so tiny tables never provision
// (and then idle) a full machine's worth of workers; explicit
// Parallelism requests are honored as given — the executor's own
// scheduler still right-sizes each operator's pool.
func (db *Database) workers(o ExecOptions, root *plan.Root) int {
	n := o.Parallelism
	if n == 0 {
		n = db.DefaultParallelism
	}
	if n == 0 {
		if db.store.Capacity() != 0 {
			return 1
		}
		n = runtime.GOMAXPROCS(0)
		if m := planMorsels(root); n > m {
			n = m
		}
	}
	if n < 1 {
		n = 1
	}
	return n
}

// planMorsels returns the largest morsel count any scan of the plan
// decomposes into — the executor's parallelism ceiling for the
// statement.
func planMorsels(n plan.Node) int {
	if n == nil {
		return 1
	}
	max := 1
	if s, ok := n.(*plan.Scan); ok && s.Access == plan.AccessCSIScan {
		if m := exec.ScanMorsels(s); m > max {
			max = m
		}
	}
	for _, c := range n.Children() {
		if m := planMorsels(c); m > max {
			max = m
		}
	}
	return max
}

// Exec parses and executes one SQL statement on the implicit local
// session.
func (db *Database) Exec(query string, opts ...ExecOptions) (*Result, error) {
	var o ExecOptions
	if len(opts) > 0 {
		o = opts[0]
	}
	st, err := sql.ParseOne(query)
	if err != nil {
		return nil, err
	}
	return db.run(db.local, st, o, query)
}

// ExecStmt executes a parsed statement on the implicit local session.
func (db *Database) ExecStmt(st sql.Statement, o ExecOptions) (*Result, error) {
	return db.run(db.local, st, o, "")
}

// ExecSession parses and executes one SQL statement on sess (the wire
// server's per-connection entry point). A nil sess falls back to the
// implicit local session.
func (db *Database) ExecSession(sess *session.Session, query string, o ExecOptions) (*Result, error) {
	if sess == nil {
		sess = db.local
	}
	st, err := sql.ParseOne(query)
	if err != nil {
		return nil, err
	}
	return db.run(sess, st, o, query)
}

// ExecPrepared executes a statement previously prepared on sess. The
// prepared text is passed through as the statement text so prepared
// executions normalize, fingerprint, and fold into the same
// query-store entries as direct ones.
func (db *Database) ExecPrepared(sess *session.Session, p *session.Prepared, o ExecOptions) (*Result, error) {
	if sess == nil {
		sess = db.local
	}
	return db.run(sess, p.Stmt, o, p.SQL)
}

// readOnly reports whether a statement only reads: such statements run
// under the shared lock and may execute concurrently with each other.
func readOnly(st sql.Statement) bool {
	switch st.(type) {
	case *sql.SelectStmt, *sql.ExplainStmt:
		return true
	}
	return false
}

// run executes a dispatched statement under the engine lock and feeds
// the engine-level metrics and slow-query log. The statement first
// passes the admission controller (a no-op unless SetAdmissionLimit
// bounded concurrency); any queue wait is charged to the query store's
// lockwait stage. The statement lock is acquired only after admission,
// so a parked statement never holds it.
func (db *Database) run(sess *session.Session, st sql.Statement, o ExecOptions, text string) (*Result, error) {
	wait, release := db.sm.Admit(sess)
	defer release()
	if readOnly(st) {
		db.sm.RLock()
		defer db.sm.RUnlock()
	} else {
		db.sm.Lock()
		defer db.sm.Unlock()
	}
	sess.BeginStatement()
	defer sess.EndStatement()
	mStatements.Inc()
	res, err := db.dispatchRecovered(st, o)
	if err != nil {
		mStmtErrors.Inc()
		var pe *exec.PanicError
		if errors.As(err, &pe) {
			mStmtPanics.Inc()
			log.Printf("engine: session %d: %v\n%s", sess.ID(), pe, pe.Stack)
		}
		if qs := db.qs.Load(); qs != nil {
			norm := normalizeStmt(st, text)
			qs.Record(querystore.Execution{
				SQL:       displayText(st, text),
				Norm:      norm,
				Kind:      stmtKind(st),
				Shape:     "Error", // bind/exec failed: no plan to shape
				Err:       true,
				SessionID: sess.ID(),
				Stages:    querystore.Stages{Parse: parseCost(text), LockWait: wait},
			})
		}
		return nil, err
	}
	if !readOnly(st) && db.highWater != nil {
		// DDL may have created or rebuilt columnstores; point their
		// delta high-water callbacks at the active policy.
		db.applyHighWaterLocked()
	}
	db.observe(sess, st, res, text, wait)
	return res, nil
}

// dispatchRecovered is the statement-boundary recover: a panic anywhere
// below (a broken internal invariant; no SQL text reaches one, since
// the binder types every expression) becomes this statement's error.
// Every lock and the admission slot run holds are released by its
// defers, so the session and the server carry on; what a panicking DML
// statement leaves half applied is ROADMAP item 1d's audit, not handled
// here.
func (db *Database) dispatchRecovered(st sql.Statement, o ExecOptions) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, &exec.PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return db.dispatch(st, o)
}

func (db *Database) dispatch(st sql.Statement, o ExecOptions) (*Result, error) {
	switch s := st.(type) {
	case *sql.SelectStmt:
		return db.execSelect(s, o, nil)
	case *sql.ExplainStmt:
		return db.execExplain(s, o)
	case *sql.InsertStmt:
		return db.execInsert(s)
	case *sql.UpdateStmt:
		return db.execUpdate(s, o)
	case *sql.DeleteStmt:
		return db.execDelete(s, o)
	case *sql.CreateTableStmt:
		return db.execCreateTable(s)
	case *sql.CreateIndexStmt:
		return db.execCreateIndex(s)
	case *sql.DropIndexStmt:
		return db.execDropIndex(s)
	case *sql.DropTableStmt:
		t, ok := db.tables[s.Table]
		if !ok {
			return nil, fmt.Errorf("engine: unknown table %q", s.Table)
		}
		delete(db.tables, s.Table)
		t.Free()
		return &Result{Metrics: vclock.NewTracker(db.model).Snapshot()}, nil
	}
	return nil, fmt.Errorf("engine: unsupported statement %T", st)
}

// Virtual per-stage costs folded into query-store stage breakdowns.
// Like every vclock constant these are model parameters, not
// measurements: parse charges per statement byte, optimize per plan
// node. Both are deterministic functions of the statement alone.
const (
	parseCPUPerByte    = 25.0 // virtual ns per SQL byte
	optimizeCPUPerNode = 2 * time.Microsecond
)

// parseCost is the virtual parse-stage cost of a statement text.
func parseCost(text string) time.Duration {
	return vclock.CPU(int64(len(text)), parseCPUPerByte)
}

// displayText is the statement text stored as the fingerprint's sample
// SQL (and in the slow-query log): the raw SQL when executed via Exec,
// the statement's Go type when executed via ExecStmt.
func displayText(st sql.Statement, text string) string {
	if text == "" {
		return fmt.Sprintf("%T", st)
	}
	return text
}

// normalizeStmt parameterizes the statement text for fingerprinting.
// Statements executed without text (ExecStmt) fingerprint by type;
// text the normalizer cannot lex falls back to the raw text.
func normalizeStmt(st sql.Statement, text string) string {
	if text == "" {
		return fmt.Sprintf("%T", st)
	}
	norm, err := sql.Normalize(text)
	if err != nil {
		return text
	}
	return norm
}

// stmtKind classifies a statement for the query store.
func stmtKind(st sql.Statement) string {
	switch st.(type) {
	case *sql.SelectStmt:
		return "select"
	case *sql.ExplainStmt:
		return "explain"
	case *sql.InsertStmt:
		return "insert"
	case *sql.UpdateStmt:
		return "update"
	case *sql.DeleteStmt:
		return "delete"
	case *sql.CreateTableStmt:
		return "create_table"
	case *sql.CreateIndexStmt:
		return "create_index"
	case *sql.DropIndexStmt:
		return "drop_index"
	case *sql.DropTableStmt:
		return "drop_table"
	}
	return "other"
}

// stmtShape is the plan-shape half of the fingerprint: the constant-
// free operator tree for planned statements (SELECT, EXPLAIN), a
// target tag for DML/DDL, whose access-path choice is not part of the
// statement's identity.
func stmtShape(st sql.Statement, pl *plan.Root) string {
	if pl != nil {
		return plan.Shape(pl)
	}
	switch s := st.(type) {
	case *sql.InsertStmt:
		return "Insert(" + s.Table + ")"
	case *sql.UpdateStmt:
		return "Update(" + s.Table + ")"
	case *sql.DeleteStmt:
		return "Delete(" + s.Table + ")"
	case *sql.CreateTableStmt:
		return "CreateTable(" + s.Table + ")"
	case *sql.CreateIndexStmt:
		return "CreateIndex(" + s.Table + "." + s.Name + ")"
	case *sql.DropIndexStmt:
		return "DropIndex(" + s.Table + "." + s.Name + ")"
	case *sql.DropTableStmt:
		return "DropTable(" + s.Table + ")"
	}
	return fmt.Sprintf("%T", st)
}

// stmtStages assembles the per-stage virtual time breakdown. LockWait
// is the admission queue wait — identically zero unless the admission
// controller is bounded (SetAdmissionLimit), so the library path's
// breakdown is unchanged from the pre-session engine.
func stmtStages(text string, pl *plan.Root, m vclock.Metrics, lockWait time.Duration) querystore.Stages {
	st := querystore.Stages{Parse: parseCost(text), LockWait: lockWait, Exec: m.ExecTime}
	if pl != nil {
		nodes := 0
		plan.Walk(pl.Input, func(plan.Node) { nodes++ })
		st.Optimize = time.Duration(nodes) * optimizeCPUPerNode
	}
	return st
}

// observe feeds one successful statement's measurements into the
// engine counters, the query store, and the slow-query log.
func (db *Database) observe(sess *session.Session, st sql.Statement, res *Result, text string, lockWait time.Duration) {
	m := res.Metrics
	mDataRead.Add(m.DataRead)
	mDataWritten.Add(m.DataWrite)
	mExecSeconds.Observe(m.ExecTime.Seconds())

	qs := db.qs.Load()
	db.slowMu.Lock()
	slow := db.slowW != nil && db.slowThreshold > 0 && m.ExecTime >= db.slowThreshold
	db.slowMu.Unlock()
	if qs == nil && !slow {
		return
	}

	norm := normalizeStmt(st, text)
	shape := stmtShape(st, res.Plan)
	fp := querystore.Fingerprint(norm, shape)
	if qs != nil {
		qs.Record(querystore.Execution{
			SQL:          displayText(st, text),
			Norm:         norm,
			Kind:         stmtKind(st),
			Shape:        shape,
			Metrics:      m,
			RowsAffected: res.RowsAffected,
			SessionID:    sess.ID(),
			Stages:       stmtStages(text, res.Plan, m, lockWait),
			Trace:        res.Trace,
		})
	}
	if !slow {
		return
	}

	db.slowMu.Lock()
	defer db.slowMu.Unlock()
	if db.slowW == nil { // raced with SetSlowQueryLog(nil, 0)
		return
	}
	mSlowQueries.Inc()
	rows := m.Rows
	if rows == 0 {
		rows = res.RowsAffected
	}
	line, err := json.Marshal(map[string]any{
		"stmt":        displayText(st, text),
		"fingerprint": querystore.FormatFingerprint(fp),
		"session_id":  sess.ID(),
		"exec_us":     m.ExecTime.Microseconds(),
		"cpu_us":      m.CPUTime.Microseconds(),
		"read_bytes":  m.DataRead,
		"write_bytes": m.DataWrite,
		"mem_bytes":   m.MemPeak,
		"rows":        rows,
		"dop":         m.DOP,
	})
	if err == nil {
		db.slowW.Write(append(line, '\n'))
	}
}

// compile is the front half of every SELECT — bind, then optimize under
// the statement's options. Execution, EXPLAIN and Plan all come through
// here, so it is where a plan cache or stage spans hook in.
func (db *Database) compile(s *sql.SelectStmt, o ExecOptions) (*sql.BoundSelect, *plan.Root, error) {
	bound, err := sql.NewBinder(db).BindSelect(s)
	if err != nil {
		return nil, nil, err
	}
	root, err := optimizer.Optimize(db, bound, optimizer.Options{Model: db.model, ExecOptions: o})
	return bound, root, err
}

// execSelect compiles and executes s and assembles its Result. The
// per-operator trace goes to trace when EXPLAIN ANALYZE supplies one.
func (db *Database) execSelect(s *sql.SelectStmt, o ExecOptions, trace *metrics.TraceNode) (*Result, error) {
	bound, root, err := db.compile(s, o)
	if err != nil {
		return nil, err
	}
	if trace == nil && db.qs.Load() != nil {
		trace = &metrics.TraceNode{} // query store samples operator traces
	}
	tr := vclock.NewTracker(db.model)
	res, err := exec.Execute(tr, root, bound.TotalSlots,
		exec.RunOptions{Trace: trace, Workers: db.workers(o, root)})
	if err != nil {
		return nil, err
	}
	out := &Result{
		Columns: res.Columns,
		Rows:    res.Rows,
		Metrics: res.Metrics,
		Plan:    root,
		Trace:   trace,
	}
	for _, bt := range bound.Tables {
		out.Locks = append(out.Locks, LockDemand{Table: bt.Ref.Table, Rows: res.Metrics.Rows + 1})
	}
	return out, nil
}

// execExplain optimizes (and for ANALYZE, executes) the inner SELECT,
// returning one output row per rendered plan line.
func (db *Database) execExplain(s *sql.ExplainStmt, o ExecOptions) (*Result, error) {
	sel, ok := s.Stmt.(*sql.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("engine: EXPLAIN supports SELECT statements, got %T", s.Stmt)
	}
	if !s.Analyze {
		_, root, err := db.compile(sel, o)
		if err != nil {
			return nil, err
		}
		out := &Result{
			Columns: []string{"EXPLAIN"},
			Plan:    root,
			Metrics: vclock.NewTracker(db.model).Snapshot(),
		}
		for _, ln := range strings.Split(strings.TrimRight(ExplainString(root), "\n"), "\n") {
			out.Rows = append(out.Rows, value.Row{value.NewString(ln)})
		}
		return out, nil
	}
	trace := &metrics.TraceNode{} // synthetic root; children are the operators
	out, err := db.execSelect(sel, o, trace)
	if err != nil {
		return nil, err
	}
	out.Columns, out.Rows = []string{"EXPLAIN ANALYZE"}, nil
	for _, ln := range trace.Render() {
		out.Rows = append(out.Rows, value.Row{value.NewString(ln)})
	}
	out.Rows = append(out.Rows, value.Row{value.NewString(fmt.Sprintf("[%s]", out.Metrics))})
	return out, nil
}

// Plan optimizes a SELECT without executing it: an EXPLAIN under the
// shared statement lock and the statement-boundary recover, but not a
// statement — no session, counter or query-store entry sees it.
func (db *Database) Plan(query string, o ExecOptions) (*plan.Root, error) {
	st, err := sql.ParseOne(query)
	if err != nil {
		return nil, err
	}
	db.sm.RLock()
	defer db.sm.RUnlock()
	res, err := db.dispatchRecovered(&sql.ExplainStmt{Stmt: st}, o)
	if err != nil {
		return nil, err
	}
	return res.Plan, nil
}

func (db *Database) execInsert(s *sql.InsertStmt) (*Result, error) {
	bound, err := sql.NewBinder(db).BindInsert(s)
	if err != nil {
		return nil, err
	}
	t := db.tables[bound.Table]
	tr := vclock.NewTracker(db.model)
	for _, r := range bound.Rows {
		t.Insert(tr, r)
	}
	return &Result{
		RowsAffected: int64(len(bound.Rows)),
		Metrics:      tr.Snapshot(),
		Locks:        []LockDemand{{Table: bound.Table, Exclusive: true, Rows: int64(len(bound.Rows))}},
	}, nil
}

// findMatches locates the rows a DML statement targets using the
// cheapest access path for its WHERE clause. The scan reads the hidden
// UID column beside the table's, one slot past them, and runs under a
// TOP when the statement has one.
func (db *Database) findMatches(tr *vclock.Tracker, t *table.Table, conjuncts []sql.Expr, top int64, o ExecOptions) ([]table.Match, error) {
	var in plan.Node = optimizer.ChooseDMLScan(t, conjuncts, optimizer.Options{Model: db.model, ExecOptions: o})
	if top != sql.NoTop {
		in = &plan.Top{Input: in, N: top}
	}
	uid := t.UIDColumn()
	res, err := exec.Execute(tr, &plan.Root{Input: in, DOP: 1}, uid+1, exec.RunOptions{})
	if err != nil {
		return nil, err
	}
	matches := make([]table.Match, len(res.Rows))
	for i, row := range res.Rows {
		matches[i] = table.Match{Row: row[:uid:uid], UID: row[uid].Int()}
	}
	return matches, nil
}

func (db *Database) execUpdate(s *sql.UpdateStmt, o ExecOptions) (*Result, error) {
	bound, err := sql.NewBinder(db).BindUpdate(s)
	if err != nil {
		return nil, err
	}
	t := db.tables[bound.Table]
	tr := vclock.NewTracker(db.model)
	matches, err := db.findMatches(tr, t, bound.Conjuncts, bound.Top, o)
	if err != nil {
		return nil, err
	}
	sets := make([]func(value.Row) value.Value, len(bound.SetCols))
	for si, col := range bound.SetCols {
		sets[si] = sql.CompileAs(bound.SetExprs[si], t.Schema.Columns[col].Kind)
	}
	ups := make([]table.Update, len(matches))
	for i, m := range matches {
		newRow := m.Row.Clone()
		for si, col := range bound.SetCols {
			newRow[col] = sets[si](m.Row)
		}
		ups[i] = table.Update{Old: m.Row, New: newRow, UID: m.UID}
	}
	n := t.ApplyUpdates(tr, ups)
	return &Result{
		RowsAffected: n,
		Metrics:      tr.Snapshot(),
		Locks:        []LockDemand{{Table: bound.Table, Exclusive: true, Rows: n}},
	}, nil
}

func (db *Database) execDelete(s *sql.DeleteStmt, o ExecOptions) (*Result, error) {
	bound, err := sql.NewBinder(db).BindDelete(s)
	if err != nil {
		return nil, err
	}
	t := db.tables[bound.Table]
	tr := vclock.NewTracker(db.model)
	matches, err := db.findMatches(tr, t, bound.Conjuncts, bound.Top, o)
	if err != nil {
		return nil, err
	}
	n := t.Delete(tr, matches)
	return &Result{
		RowsAffected: n,
		Metrics:      tr.Snapshot(),
		Locks:        []LockDemand{{Table: bound.Table, Exclusive: true, Rows: n}},
	}, nil
}

func (db *Database) execCreateTable(s *sql.CreateTableStmt) (*Result, error) {
	cols := make([]value.Column, len(s.Cols))
	for i, c := range s.Cols {
		for _, prev := range cols[:i] {
			if prev.Name == c.Name {
				return nil, fmt.Errorf("engine: column %q appears twice in table %q", c.Name, s.Table)
			}
		}
		cols[i] = value.Column{Name: c.Name, Kind: c.Kind}
	}
	schema := value.NewSchema(cols...)
	var pk []int
	for _, name := range s.PrimaryKey {
		ord := schema.Ordinal(name)
		if ord < 0 {
			return nil, fmt.Errorf("engine: unknown PRIMARY KEY column %q", name)
		}
		pk = append(pk, ord)
	}
	if _, err := db.createTable(s.Table, schema, pk); err != nil {
		return nil, err
	}
	return &Result{Metrics: vclock.NewTracker(db.model).Snapshot()}, nil
}

func (db *Database) execCreateIndex(s *sql.CreateIndexStmt) (*Result, error) {
	t := db.tables[s.Table]
	if t == nil {
		return nil, fmt.Errorf("engine: unknown table %q", s.Table)
	}
	tr := vclock.NewTracker(db.model)
	ordsOf := func(names []string) ([]int, error) {
		out := make([]int, len(names))
		for i, n := range names {
			ord := t.Schema.Ordinal(n)
			if ord < 0 {
				return nil, fmt.Errorf("engine: unknown column %q", n)
			}
			out[i] = ord
		}
		return out, nil
	}
	if err := checkNewIndex(t, s); err != nil {
		return nil, err
	}
	keys, err := ordsOf(s.Cols)
	if err != nil {
		return nil, err
	}
	switch {
	case s.Columnstore && s.Clustered:
		t.ConvertPrimary(tr, table.PrimaryColumnstore, keys)
	case s.Columnstore:
		t.AddSecondaryCSI(tr, s.Name, keys...)
	case s.Clustered:
		t.ConvertPrimary(tr, table.PrimaryBTree, keys)
	default:
		include, err := ordsOf(s.Include)
		if err != nil {
			return nil, err
		}
		t.AddSecondaryBTree(tr, s.Name, keys, include)
	}
	return &Result{Metrics: tr.Snapshot()}, nil
}

// checkNewIndex rejects an index the table cannot take, before the
// table is touched: a second secondary index of one name, or a second
// columnstore — a table has at most one, primary or secondary (paper
// §4.3; table.AddSecondaryCSI states the rule).
func checkNewIndex(t *table.Table, s *sql.CreateIndexStmt) error {
	if !s.Clustered && t.FindSecondary(s.Name) != nil {
		return fmt.Errorf("engine: index %q already exists on %q", s.Name, s.Table)
	}
	if !s.Columnstore {
		return nil
	}
	if csi := t.SecondaryCSI(); csi != nil {
		return fmt.Errorf("engine: %q already has columnstore index %q; a table has at most one columnstore", s.Table, csi.Name)
	}
	if !s.Clustered && t.Primary() == table.PrimaryColumnstore {
		return fmt.Errorf("engine: %q is a clustered columnstore; a table has at most one columnstore", s.Table)
	}
	return nil
}

func (db *Database) execDropIndex(s *sql.DropIndexStmt) (*Result, error) {
	t := db.tables[s.Table]
	if t == nil {
		return nil, fmt.Errorf("engine: unknown table %q", s.Table)
	}
	if !t.DropSecondary(s.Name) {
		return nil, fmt.Errorf("engine: unknown index %q on %q", s.Name, s.Table)
	}
	return &Result{Metrics: vclock.NewTracker(db.model).Snapshot()}, nil
}

// ExplainString renders a plan tree for diagnostics.
func ExplainString(root *plan.Root) string {
	var out string
	var walk func(n plan.Node, depth int)
	walk = func(n plan.Node, depth int) {
		rows, cost := n.Estimate()
		for i := 0; i < depth; i++ {
			out += "  "
		}
		out += fmt.Sprintf("%s (rows=%.0f cost=%v)\n", n.Describe(), rows, cost)
		for _, c := range n.Children() {
			walk(c, depth+1)
		}
	}
	walk(root.Input, 0)
	out += fmt.Sprintf("[dop=%d grant=%dB]\n", root.DOP, root.MemGrant)
	return out
}
