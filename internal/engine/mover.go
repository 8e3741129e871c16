// Online tuple mover: the background maintenance loop that keeps every
// columnstore's compressed-kernel fast path hot under sustained writes.
//
// The mover closes the HTAP loop the paper leaves open (ROADMAP item 5):
// trickle inserts land in per-index delta B+ trees and secondary-index
// deletes in delete buffers, and any such backlog pushes scans off the
// encoding-aware kernels into decode-then-filter fallback. The mover
// incrementally compacts that backlog while queries and DML keep
// running, in three phases per step:
//
//  1. pick+plan under the SHARED statement lock: evaluate every index's
//     compaction debt (colstore.CompactionDebt — the modeled scan tax a
//     backlog charges every query, against the work to clear it), pick
//     the highest debt-per-work target, and take an immutable snapshot
//     or plan (SnapshotDelta / PlanFold / PlanRebuild);
//  2. encode with NO lock held: compress the snapshotted rows into new
//     rowgroups (colstore.EncodeRows) — the expensive part, paid while
//     queries run freely;
//  3. install under the EXCLUSIVE lock: a short critical section that
//     validates the snapshot's generation stamp and swaps the encoded
//     groups in (Install*). DML that invalidated the snapshot aborts
//     the install; the encoded segments are discarded and the next
//     sweep retries against fresh state.
//
// Determinism contract: every mover charge lands on its own maintenance
// vclock tracker, never on a query's. Query Metrics therefore do not
// depend on whether the mover is running — only on the physical state
// the mover has (or has not yet) produced. Like parallel auto-DOP, the
// background mover assumes an unbounded buffer pool: under a bounded
// LRU pool its reads would reorder evictions and perturb query I/O
// accounting (see DESIGN.md).
package engine

import (
	"sort"
	"sync"
	"time"

	"hybriddb/internal/colstore"
	"hybriddb/internal/metrics"
	"hybriddb/internal/vclock"
)

var (
	mMoverWakeups = metrics.NewCounter("hybriddb_tuplemover_wakeups_total",
		"tuple-mover loop wakeups (high-water signals and ticks)")
	mMoverSteps = metrics.NewCounter("hybriddb_tuplemover_steps_total",
		"tuple-mover incremental steps that attempted an install")
	mMoverDebt = metrics.NewGauge("hybriddb_tuplemover_debt_ns",
		"modeled scan tax (ns) of all columnstore write backlogs at the last sweep")
)

// MoverOptions tune the background tuple mover.
type MoverOptions struct {
	// Interval is the idle sweep cadence; high-water signals from Insert
	// wake the loop sooner. 0 means 500µs.
	Interval time.Duration
	// MinMoveRows is the smallest delta backlog worth moving into a
	// compressed rowgroup: below it the row-mode scan tax is cheaper
	// than the rowgroup fragmentation a tiny group causes. 0 means
	// rowGroupSize/8 per index (min 1). Drain ignores it.
	MinMoveRows int
}

// MoverStats is a snapshot of the mover's cumulative work, all charged
// to the maintenance tracker (never to queries).
type MoverStats struct {
	Steps     int64 // installs attempted
	Moves     int64 // delta ranges moved into compressed rowgroups
	Folds     int64 // delete-buffer folds installed
	Rebuilds  int64 // rowgroups rebuilt to shed dead rows
	Aborts    int64 // installs abandoned because DML won the race
	RowsMoved int64
	// Maintenance is the virtual cost of all mover work on its own
	// vclock tracker.
	Maintenance vclock.Metrics
}

// IndexDebt is one columnstore's compaction debt, for diagnostics
// (hshell \debt) and tests.
type IndexDebt struct {
	Table string
	Index string // "" for the primary columnstore
	Debt  colstore.Debt
}

// TupleMover is the background maintenance loop. Create it with
// Database.EnableTupleMover; stop it with DisableTupleMover or
// Database.Close.
type TupleMover struct {
	db   *Database
	opts MoverOptions

	wake chan struct{}
	stop chan struct{}
	done chan struct{}

	// tr is the maintenance vclock tracker. Only the mover goroutine
	// (and Drain, which runs only while the loop is quiesced by the
	// stepMu below) charges it.
	stepMu sync.Mutex
	tr     *vclock.Tracker

	statMu sync.Mutex
	stats  MoverStats
}

// EnableTupleMover starts the background tuple mover and routes every
// columnstore's delta high-water signal to it (Insert stops compressing
// inline at the rowgroup boundary; see colstore.Index.SetHighWater).
// Enabling twice returns the running mover.
func (db *Database) EnableTupleMover(opts MoverOptions) *TupleMover {
	if opts.Interval <= 0 {
		opts.Interval = 500 * time.Microsecond
	}
	db.sm.Lock()
	if db.mover != nil {
		m := db.mover
		db.sm.Unlock()
		return m
	}
	m := &TupleMover{
		db:   db,
		opts: opts,
		wake: make(chan struct{}, 1),
		stop: make(chan struct{}),
		done: make(chan struct{}),
		tr:   vclock.NewTracker(db.model),
	}
	db.mover = m
	db.highWater = m.signal
	db.applyHighWaterLocked()
	db.sm.Unlock()
	// The loop is a service goroutine, not a fork/join worker: it is
	// joined by DisableTupleMover/Close via m.stop + m.done, which may
	// happen many statements later. This is the one go statement the
	// confine analyzer allows in this package.
	go m.loop()
	return m
}

// DisableTupleMover stops the background mover (waiting for any step in
// flight), detaches the high-water callbacks, and restores synchronous
// inline compaction. No-op when no mover is running.
func (db *Database) DisableTupleMover() {
	db.sm.Lock()
	m := db.mover
	db.mover = nil
	if db.highWater != nil {
		db.highWater = nil
		db.applyHighWaterLocked()
	}
	db.sm.Unlock()
	if m == nil {
		return
	}
	// Join outside the statement lock: the loop may be blocked on
	// db.sm.Lock for an install, which must be allowed to finish.
	close(m.stop)
	<-m.done
}

// Close stops background maintenance. The database remains usable for
// statements afterwards (compaction reverts to synchronous).
func (db *Database) Close() error {
	db.DisableTupleMover()
	return nil
}

// Mover returns the running background tuple mover, or nil.
func (db *Database) Mover() *TupleMover {
	db.sm.RLock()
	defer db.sm.RUnlock()
	return db.mover
}

// CompactionDebts reports every columnstore's current compaction debt,
// ordered by table then index name.
func (db *Database) CompactionDebts() []IndexDebt {
	db.sm.RLock()
	defer db.sm.RUnlock()
	return db.compactionDebtsLocked()
}

func (db *Database) compactionDebtsLocked() []IndexDebt {
	var out []IndexDebt
	for _, name := range db.sortedTableNames() {
		db.tables[name].Columnstores(func(index string, x *colstore.Index) {
			out = append(out, IndexDebt{Table: name, Index: index, Debt: x.CompactionDebt(db.model)})
		})
	}
	return out
}

// CompactTable synchronously compacts one table's columnstores (delta
// compression and delete-buffer folding), or every table when name is
// empty. The work is uncharged, like the legacy inline tuple move.
func (db *Database) CompactTable(name string) bool {
	db.sm.Lock()
	defer db.sm.Unlock()
	if name == "" {
		for _, t := range db.tables {
			t.TupleMove(nil)
		}
		return true
	}
	t := db.tables[name]
	if t == nil {
		return false
	}
	t.TupleMove(nil)
	return true
}

// sortedTableNames returns the catalog's table names in sorted order so
// mover sweeps visit indexes in a stable order. Callers hold the
// statement lock.
func (db *Database) sortedTableNames() []string {
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// applyHighWaterLocked points every materialized columnstore's delta
// high-water callback at the current policy (nil = inline compaction).
// Caller holds the statement lock exclusively. Indexes created outside the SQL path
// (e.g. advisor recommendations applied directly to tables) are hooked
// on the next exclusive statement or mover install.
func (db *Database) applyHighWaterLocked() {
	for _, t := range db.tables {
		t.Columnstores(func(_ string, x *colstore.Index) { x.SetHighWater(db.highWater) })
	}
}

// signal is the delta high-water callback: a non-blocking nudge so the
// mover runs as soon as the signalling statement releases the lock. It
// must never block — Insert calls it with the statement lock held.
func (m *TupleMover) signal() {
	select {
	case m.wake <- struct{}{}:
	default:
	}
}

// Stats snapshots the mover's cumulative work counters.
func (m *TupleMover) Stats() MoverStats {
	m.statMu.Lock()
	defer m.statMu.Unlock()
	return m.stats
}

// Drain synchronously runs mover steps until no actionable debt
// remains (ignoring MinMoveRows, so the delta empties completely).
// Safe to call while the background loop runs: steps are serialized by
// stepMu. Intended for tests and quiesce points.
func (m *TupleMover) Drain() {
	for m.step(true) {
	}
}

func (m *TupleMover) loop() {
	defer close(m.done)
	tick := time.NewTicker(m.opts.Interval)
	defer tick.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-m.wake:
		case <-tick.C:
		}
		mMoverWakeups.Inc()
		for m.step(false) {
			select {
			case <-m.stop:
				return
			default:
			}
		}
	}
}

// moverWork is one planned incremental step: exactly one of snap, fold,
// or rebuild is set.
type moverWork struct {
	x       *colstore.Index
	snap    *colstore.DeltaSnapshot
	fold    *colstore.FoldPlan
	rebuild *colstore.RebuildPlan
}

// step runs one pick→encode→install cycle. It returns true when it
// attempted work (even if the install was aborted by racing DML), so
// callers keep draining until the backlog is gone.
func (m *TupleMover) step(drain bool) bool {
	m.stepMu.Lock()
	defer m.stepMu.Unlock()
	db := m.db

	db.sm.RLock()
	w := m.pickLocked(drain)
	db.sm.RUnlock()
	if w == nil {
		return false
	}
	mMoverSteps.Inc()

	// Encode off-lock: queries and DML run concurrently with the
	// compression work.
	var encoded []*colstore.EncodedGroup
	switch {
	case w.snap != nil:
		encoded = w.x.EncodeRows(w.snap.Rows, m.tr)
	case w.rebuild != nil:
		encoded = w.x.EncodeRows(w.rebuild.Rows, m.tr)
	}

	// Install under a short exclusive critical section.
	db.sm.Lock()
	var ok bool
	switch {
	case w.snap != nil:
		ok = w.x.InstallMove(w.snap, encoded, m.tr)
	case w.fold != nil:
		ok = w.x.InstallFold(w.fold, m.tr)
	case w.rebuild != nil:
		ok = w.x.InstallRebuild(w.rebuild, encoded, m.tr)
	}
	if db.mover == m {
		// Hook any columnstores created outside the SQL path since the
		// last exclusive statement.
		db.applyHighWaterLocked()
	}
	db.sm.Unlock()
	if !ok && encoded != nil {
		w.x.DiscardEncoded(encoded)
	}

	m.statMu.Lock()
	m.stats.Steps++
	switch {
	case !ok:
		m.stats.Aborts++
	case w.snap != nil:
		m.stats.Moves++
		m.stats.RowsMoved += int64(len(w.snap.Rows))
	case w.fold != nil:
		m.stats.Folds++
	case w.rebuild != nil:
		m.stats.Rebuilds++
	}
	m.stats.Maintenance = m.tr.Snapshot()
	m.statMu.Unlock()
	return true
}

// pickLocked evaluates every columnstore's compaction debt, refreshes
// the debt gauge, and plans the step colstore.Index.NextStep (the
// policy) names for the highest debt-per-work index that has one.
// Caller holds at least the shared lock. Returns nil when nothing is
// worth doing.
func (m *TupleMover) pickLocked(drain bool) *moverWork {
	db := m.db
	var (
		w         *moverWork
		step      colstore.Step
		gi        int
		bestScore float64
		totalTax  int64
	)
	for _, name := range db.sortedTableNames() {
		db.tables[name].Columnstores(func(_ string, x *colstore.Index) {
			d := x.CompactionDebt(db.model)
			totalTax += int64(d.ScanTax)
			s, g := x.NextStep(m.minMoveRows(x, drain))
			if s == colstore.StepNone {
				return
			}
			if score := debtPerWork(d); w == nil || score > bestScore {
				w, step, gi, bestScore = &moverWork{x: x}, s, g, score
			}
		})
	}
	mMoverDebt.Set(totalTax)
	switch step {
	case colstore.StepFold:
		w.fold = w.x.PlanFold(m.tr)
	case colstore.StepMove:
		w.snap = w.x.SnapshotDelta(w.x.RowGroupSize(), m.tr)
	case colstore.StepRebuild:
		w.rebuild = w.x.PlanRebuild(gi, m.tr)
	}
	return w
}

// minMoveRows resolves the per-index minimum delta move size; a drain
// moves whatever is there.
func (m *TupleMover) minMoveRows(x *colstore.Index, drain bool) int64 {
	n := int64(m.opts.MinMoveRows)
	if n <= 0 {
		n = int64(x.RowGroupSize() / 8)
	}
	if drain || n < 1 {
		n = 1
	}
	return n
}

// debtPerWork scores an index for scheduling: modeled scan tax per unit
// of compaction work. Zero-work debt (shouldn't happen) sorts first.
func debtPerWork(d colstore.Debt) float64 {
	if d.Work <= 0 {
		return float64(d.ScanTax)
	}
	return float64(d.ScanTax) / float64(d.Work)
}
