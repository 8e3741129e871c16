// Package hybriddb is a single-node SQL engine that supports hybrid
// physical designs — B+ tree and columnstore indexes on the same
// database and the same table — together with a physical design tuning
// advisor that recommends the right combination for a workload. It is
// a from-scratch Go reproduction of the system studied in "Columnstore
// and B+ tree – Are Hybrid Physical Designs Important?" (SIGMOD 2018).
//
// Quick start:
//
//	db := hybriddb.Open()
//	db.Exec(`CREATE TABLE t (id BIGINT, v BIGINT, PRIMARY KEY (id))`)
//	db.Exec(`INSERT INTO t VALUES (1, 10), (2, 20)`)
//	db.Exec(`CREATE NONCLUSTERED COLUMNSTORE INDEX csi ON t`)
//	res, _ := db.Query(`SELECT sum(v) FROM t WHERE id < 100`)
//	fmt.Println(res.Rows, res.Metrics)
//
// Every statement execution returns Metrics — virtual execution time,
// CPU time, data read, memory peak, and degree of parallelism — from
// the engine's deterministic resource model (see DESIGN.md for how the
// model stands in for the paper's hardware).
//
// The tuning advisor analyzes a workload of SQL statements and
// recommends B+ tree and/or columnstore indexes:
//
//	rec, _ := db.Tune(hybriddb.Workload{{SQL: "SELECT ..."}}, hybriddb.TuneOptions{})
//	rec.Apply(db.Internal())
package hybriddb

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"hybriddb/internal/advisor"
	"hybriddb/internal/engine"
	"hybriddb/internal/metrics"
	"hybriddb/internal/plan"
	"hybriddb/internal/querystore"
	"hybriddb/internal/session"
	"hybriddb/internal/value"
	"hybriddb/internal/vclock"
)

// Result is the outcome of one statement: output rows and columns for
// queries, rows affected for DML, plus metrics and the executed plan.
type Result = engine.Result

// ExecOptions tune one statement execution (memory grant, baseline and
// ablation switches).
type ExecOptions = engine.ExecOptions

// Metrics is the per-statement measurement surface.
type Metrics = vclock.Metrics

// Statement is one workload entry for the tuning advisor.
type Statement = advisor.Statement

// Workload is a weighted statement set for the tuning advisor.
type Workload = advisor.Workload

// TuneOptions configure the tuning advisor.
type TuneOptions = advisor.Options

// Recommendation is the advisor's output.
type Recommendation = advisor.Recommendation

// Value is a typed SQL scalar appearing in result rows.
type Value = value.Value

// Row is one result row.
type Row = value.Row

// DB is a database handle.
type DB struct {
	inner *engine.Database
}

// Option configures Open.
type Option func(*config)

type config struct {
	model        *vclock.Model
	poolBytes    int64
	rowGroupSize int
	parallelism  int
}

// WithColdStorage prices data access against the paper's HDD profile;
// combined with CoolCache it reproduces cold-run experiments. The
// default is memory-resident (DRAM) pricing.
func WithColdStorage() Option {
	return func(c *config) { c.model = vclock.DefaultModel(vclock.HDD) }
}

// WithBufferPool bounds the buffer pool (bytes); 0 means unbounded.
func WithBufferPool(bytes int64) Option {
	return func(c *config) { c.poolBytes = bytes }
}

// WithRowGroupSize sets the columnstore rowgroup size used by indexes
// created through SQL DDL.
func WithRowGroupSize(rows int) Option {
	return func(c *config) { c.rowGroupSize = rows }
}

// WithParallelism sets the default worker budget for morsel-driven
// parallel execution: 1 forces serial, N caps the worker pool at N, 0
// (the default) picks automatically — all cores when the buffer pool
// is unbounded, serial otherwise. Per-statement ExecOptions.Parallelism
// overrides it. Parallel workers change only wall-clock time; virtual
// metrics are identical at every setting.
func WithParallelism(workers int) Option {
	return func(c *config) { c.parallelism = workers }
}

// Open creates an empty database.
func Open(opts ...Option) *DB {
	cfg := config{model: vclock.DefaultModel(vclock.DRAM)}
	for _, o := range opts {
		o(&cfg)
	}
	db := engine.New(cfg.model, cfg.poolBytes)
	db.DefaultRowGroupSize = cfg.rowGroupSize
	db.DefaultParallelism = cfg.parallelism
	return &DB{inner: db}
}

// Wrap adapts an existing engine database (e.g. one produced by the
// internal workload generators) into the public handle.
func Wrap(inner *engine.Database) *DB { return &DB{inner: inner} }

// Exec parses and executes one SQL statement.
func (db *DB) Exec(sql string, opts ...ExecOptions) (*Result, error) {
	return db.inner.Exec(sql, opts...)
}

// Query is Exec for readers who prefer the name.
func (db *DB) Query(sql string, opts ...ExecOptions) (*Result, error) {
	return db.inner.Exec(sql, opts...)
}

// Explain returns the optimizer's plan for a SELECT without running it.
func (db *DB) Explain(sql string, opts ...ExecOptions) (string, error) {
	var o ExecOptions
	if len(opts) > 0 {
		o = opts[0]
	}
	root, err := db.inner.Plan(sql, o)
	if err != nil {
		return "", err
	}
	return engine.ExplainString(root), nil
}

// Tune runs the design advisor over the workload and returns its
// recommendation; call rec.Apply(db.Internal()) to materialize it.
func (db *DB) Tune(w Workload, opts TuneOptions) (*Recommendation, error) {
	return advisor.Tune(db.inner, w, opts)
}

// TuneAndApply tunes and materializes the recommendation.
func (db *DB) TuneAndApply(w Workload, opts TuneOptions) (*Recommendation, error) {
	rec, err := advisor.Tune(db.inner, w, opts)
	if err != nil {
		return nil, err
	}
	if err := rec.Apply(db.inner); err != nil {
		return nil, err
	}
	return rec, nil
}

// SetSlowQueryLog enables the engine's slow-query log: statements
// whose virtual execution time meets or exceeds threshold are appended
// to w as JSON lines. A nil writer or non-positive threshold disables
// it.
func (db *DB) SetSlowQueryLog(w io.Writer, threshold time.Duration) {
	db.inner.SetSlowQueryLog(w, threshold)
}

// QueryStoreOptions bound the query store's retention (fingerprints,
// ring-buffer size, trace sampling interval); the zero value uses
// defaults.
type QueryStoreOptions = querystore.Options

// QueryStats is one fingerprint's cumulative statistics.
type QueryStats = querystore.QueryStats

// EnableQueryStore starts capturing every statement into a query
// store: statements are normalized (literals parameterized),
// fingerprinted together with their plan shape, and folded into
// per-fingerprint cumulative statistics with a ring buffer of recent
// executions. The store also registers itself at /debug/querystore on
// servers started by ServeMetrics afterwards. Store contents are a
// deterministic function of the statement sequence — bit-identical
// run-to-run and at any parallelism setting.
func (db *DB) EnableQueryStore(opts QueryStoreOptions) {
	s := db.inner.EnableQueryStore(opts)
	metrics.Handle("/debug/querystore", s)
}

// QueryStats snapshots the query store's per-fingerprint statistics
// (nil when EnableQueryStore has not been called).
func (db *DB) QueryStats() []QueryStats { return db.inner.QueryStats() }

// ExportWorkloadCapture writes the query store's contents as a
// replayable JSONL workload trace (see OBSERVABILITY.md for the
// format). TuneFromCapture consumes the same stream.
func (db *DB) ExportWorkloadCapture(w io.Writer) error {
	s := db.inner.QueryStore()
	if s == nil {
		return errNoQueryStore
	}
	return s.ExportJSONL(w)
}

var errNoQueryStore = fmt.Errorf("hybriddb: query store not enabled (call EnableQueryStore first)")

// TuneFromCapture runs the design advisor over a captured workload
// trace (the output of ExportWorkloadCapture): each fingerprint
// becomes one weighted workload statement.
func (db *DB) TuneFromCapture(r io.Reader, opts TuneOptions) (*Recommendation, error) {
	w, err := advisor.FromCapture(r)
	if err != nil {
		return nil, err
	}
	return advisor.Tune(db.inner, w, opts)
}

// ServeMetrics starts an HTTP server on addr exposing the process-wide
// metrics registry at /metrics (Prometheus text format), /debug/vars
// (expvar), and — when a query store is enabled — /debug/querystore.
// Returns the server for shutdown.
func ServeMetrics(addr string) (*http.Server, error) { return metrics.Serve(addr) }

// MetricsText renders the process-wide metrics registry in Prometheus
// text exposition format.
func MetricsText() string {
	var b strings.Builder
	metrics.Default().WritePrometheus(&b)
	return b.String()
}

// MetricsSnapshot returns a flat name→value snapshot of the process-wide
// metrics registry (histograms appear as _count and _sum entries).
func MetricsSnapshot() map[string]float64 { return metrics.Default().Snapshot() }

// CoolCache evicts every page from the buffer pool (cold run).
func (db *DB) CoolCache() { db.inner.Store().Cool() }

// WarmCache makes every page resident (hot run).
func (db *DB) WarmCache() { db.inner.Store().Prewarm() }

// TupleMove runs columnstore background maintenance (delta compression
// and delete-buffer compaction) on every table.
func (db *DB) TupleMove() { db.inner.CompactTable("") }

// MoverOptions tune the background tuple mover (sweep interval, minimum
// move size, rebuild threshold); the zero value uses defaults.
type MoverOptions = engine.MoverOptions

// Mover is a handle on the running background tuple mover.
type Mover = engine.TupleMover

// IndexDebt is one columnstore's compaction-debt report.
type IndexDebt = engine.IndexDebt

// EnableTupleMover starts the cost-based background tuple mover: a
// maintenance loop that runs concurrently with queries and DML,
// incrementally compacting delta-store rows into compressed rowgroups
// and folding delete buffers, always picking the index whose write
// backlog charges scans the most per unit of compaction work. While a
// mover is attached, inserts never compress the delta inline — crossing
// the rowgroup boundary just signals the mover. Mover CPU is charged to
// a separate maintenance tracker, so query Metrics stay deterministic.
func (db *DB) EnableTupleMover(opts MoverOptions) *Mover {
	return db.inner.EnableTupleMover(opts)
}

// DisableTupleMover stops the background mover and restores synchronous
// inline compaction.
func (db *DB) DisableTupleMover() { db.inner.DisableTupleMover() }

// Close stops background maintenance (the handle remains usable for
// statements afterwards).
func (db *DB) Close() error { return db.inner.Close() }

// CompactionDebts reports every columnstore's current write-side
// backlog and its modeled scan tax.
func (db *DB) CompactionDebts() []IndexDebt { return db.inner.CompactionDebts() }

// TableRows returns a table's live row count, or -1 if absent.
func (db *DB) TableRows(name string) int64 {
	t := db.inner.Table(name)
	if t == nil {
		return -1
	}
	return t.RowCount()
}

// Internal exposes the underlying engine for advanced use (bulk loads,
// direct table access, custom cost models).
func (db *DB) Internal() *engine.Database { return db.inner }

// SessionInfo is one open session's identity and activity snapshot.
type SessionInfo = session.Info

// Sessions snapshots every open session (the engine's implicit local
// session plus any wire connections), ordered by id.
func (db *DB) Sessions() []SessionInfo { return db.inner.Sessions() }

// SetAdmissionLimit bounds how many statements may execute
// concurrently; excess statements queue FIFO at the admission
// controller and their wait is charged to the query store's lockwait
// stage. 0 (the default) leaves admission unbounded.
func (db *DB) SetAdmissionLimit(n int) { db.inner.SetAdmissionLimit(n) }

// PlanUsesColumnstore reports whether a SELECT's plan reads any
// columnstore index — the plan-inspection hook behind the paper's
// Figure 10.
func (db *DB) PlanUsesColumnstore(sql string) (bool, error) {
	root, err := db.inner.Plan(sql, ExecOptions{})
	if err != nil {
		return false, err
	}
	for _, k := range plan.LeafAccess(root.Input) {
		if k == plan.AccessCSIScan {
			return true, nil
		}
	}
	return false, nil
}

// Duration re-exports time.Duration for Metrics consumers.
type Duration = time.Duration
