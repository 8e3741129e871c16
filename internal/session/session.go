// Package session is the engine's session and admission layer: it owns
// the statement-boundary lock that used to live on engine.Database
// (DDL/DML exclusive, SELECT/EXPLAIN shared), a registry of sessions —
// one per connected client plus the library path's implicit local
// session — each carrying an auth identity, per-session default
// ExecOptions, and prepared statements, and an admission controller
// that bounds how many statements may execute (or hold the statement
// lock) concurrently.
//
// Admission is a FIFO-fair counting semaphore: a statement that finds
// the engine at its concurrency limit parks on a ticket channel and is
// woken in arrival order when a running statement finishes. The wait
// happens with NO lock held (session manager lock or statement lock —
// see the lockorder hierarchy in internal/analysis/lockorder), and the
// measured wall-clock queue time is returned to the engine, which
// charges it to the query store's lockwait stage. With no limit
// configured (the library default) Admit never blocks and never
// measures, so the in-process path's stage breakdown stays bit-
// identical to the pre-session engine.
package session

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hybriddb/internal/metrics"
	"hybriddb/internal/sql"
)

// Session/admission observability, shared by every Manager in the
// process (see OBSERVABILITY.md).
var (
	mSessionsActive = metrics.NewGauge("engine_sessions_active",
		"sessions currently open (wire connections plus implicit local sessions)")
	mAdmissionWaits = metrics.NewCounter("engine_admission_waits_total",
		"statements that queued at the admission controller before executing")
	mQueueDepth = metrics.NewGauge("engine_admission_queue_depth",
		"statements currently parked in the admission queue")
)

// State is a session's coarse lifecycle state.
type State int32

// Session states. A session is Idle between statements, Queued while
// parked at the admission controller, and Active while its statement
// holds the statement lock.
const (
	StateIdle State = iota
	StateQueued
	StateActive
	StateClosed
)

// String renders the state for \sessions and the wire protocol.
func (s State) String() string {
	switch s {
	case StateIdle:
		return "idle"
	case StateQueued:
		return "queued"
	case StateActive:
		return "active"
	case StateClosed:
		return "closed"
	default:
		return fmt.Sprintf("state(%d)", int32(s))
	}
}

// ExecOptions tune one statement execution. They live here (not in
// engine) because a session owns its defaults: a wire client sets them
// once at handshake and every statement on that session inherits them.
// engine.ExecOptions is an alias of this type and optimizer.Options
// embeds it, so each field is declared exactly once.
type ExecOptions struct {
	// MemGrant bounds the query's working memory (0 = unlimited).
	MemGrant int64
	// NoColumnstore removes columnstore indexes' access paths (B+-tree-only
	// baseline); a clustered columnstore is still read as the primary.
	NoColumnstore bool
	// NoElimination, NoBatchMode, and NoKernelPushdown are ablation
	// switches; NoKernelPushdown keeps predicate evaluation in the
	// executor instead of the columnstore's encoding-aware kernels.
	NoElimination    bool
	NoBatchMode      bool
	NoKernelPushdown bool
	// Parallelism is the real worker-goroutine budget for morsel-driven
	// parallel operators: 0 defers to Database.DefaultParallelism (and
	// its automatic choice), 1 forces serial execution, N allows up to N
	// workers. It does not affect the plan's (virtual) DOP or any
	// reported Metrics — only wall-clock time.
	Parallelism int
}

// Prepared is one server-side prepared statement: the parsed form plus
// the original text, which the engine re-uses for normalization and
// fingerprinting so prepared executions fold into the same query-store
// entries as direct ones.
type Prepared struct {
	ID   int64
	SQL  string
	Stmt sql.Statement
}

// Session is one client's state: identity, lifecycle counters, default
// exec options, and prepared statements. Statement-lifecycle fields
// (state, statements) are atomics so \sessions can snapshot them
// without taking any lock; the prepared-statement map has its own leaf
// mutex because the library path may share one session across
// goroutines.
type Session struct {
	id   int64
	user string

	state      atomic.Int32
	statements atomic.Int64

	pmu      sync.Mutex
	prepared map[int64]*Prepared
	nextPrep int64
	defaults ExecOptions
}

// ID returns the session's manager-unique id.
func (s *Session) ID() int64 { return s.id }

// User returns the session's auth identity.
func (s *Session) User() string { return s.user }

// State returns the session's current lifecycle state.
func (s *Session) State() State { return State(s.state.Load()) }

// Statements returns how many statements the session has executed.
func (s *Session) Statements() int64 { return s.statements.Load() }

// Defaults returns the session's default ExecOptions.
func (s *Session) Defaults() ExecOptions {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	return s.defaults
}

// SetDefaults replaces the session's default ExecOptions (a wire
// handshake maps connection parameters here).
func (s *Session) SetDefaults(o ExecOptions) {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	s.defaults = o
}

// Prepare parses text and registers it as a prepared statement on the
// session.
func (s *Session) Prepare(text string) (*Prepared, error) {
	st, err := sql.ParseOne(text)
	if err != nil {
		return nil, err
	}
	s.pmu.Lock()
	defer s.pmu.Unlock()
	s.nextPrep++
	p := &Prepared{ID: s.nextPrep, SQL: text, Stmt: st}
	if s.prepared == nil {
		s.prepared = make(map[int64]*Prepared)
	}
	s.prepared[p.ID] = p
	return p, nil
}

// Prepared looks up a prepared statement by id.
func (s *Session) Prepared(id int64) (*Prepared, bool) {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	p, ok := s.prepared[id]
	return p, ok
}

// ClosePrepared drops a prepared statement; it reports whether the id
// was known.
func (s *Session) ClosePrepared(id int64) bool {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	_, ok := s.prepared[id]
	delete(s.prepared, id)
	return ok
}

// BeginStatement marks the session active. The engine calls it after
// admission and lock acquisition, under the statement lock.
func (s *Session) BeginStatement() { s.state.Store(int32(StateActive)) }

// EndStatement counts the statement and returns the session to idle.
func (s *Session) EndStatement() {
	s.statements.Add(1)
	s.state.Store(int32(StateIdle))
}

// Info is one session's row in \sessions and the wire Sessions frame.
type Info struct {
	ID         int64  `json:"id"`
	User       string `json:"user"`
	State      string `json:"state"`
	Statements int64  `json:"statements"`
}

// Manager owns the statement-boundary lock, the session registry, and
// the admission controller for one engine.Database.
//
// Lock hierarchy (see internal/analysis/lockorder): mu is the rank-10
// statement lock — no blocking operation may run under it; smu is the
// rank-15 session-manager lock guarding the registry and admission
// bookkeeping — it is a short-critical-section lock that likewise
// forbids blocking, and in particular the admission park (a channel
// receive) happens strictly after smu is released.
type Manager struct {
	// mu is the statement-boundary lock extracted from
	// engine.Database.mu: SELECT and EXPLAIN take the shared side,
	// everything else (DML, DDL, mover installs) the exclusive side.
	mu sync.RWMutex

	// smu guards the session registry and the admission state below.
	smu      sync.Mutex
	sessions map[int64]*Session
	nextID   int64
	limit    int             // max concurrently-admitted statements; 0 = unbounded
	inUse    int             // admitted statements currently holding a slot
	queue    []chan struct{} // FIFO admission waiters
}

// NewManager creates an empty session manager with unbounded
// admission.
func NewManager() *Manager {
	return &Manager{sessions: make(map[int64]*Session)}
}

// Lock acquires the statement lock exclusively (DML/DDL, mover
// installs). The lockorder analyzer treats these four methods as
// transitions on the rank-10 statement lock, so engine call sites stay
// inside the checked hierarchy.
func (m *Manager) Lock() { m.mu.Lock() }

// Unlock releases the exclusive statement lock.
func (m *Manager) Unlock() { m.mu.Unlock() }

// RLock acquires the statement lock shared (SELECT/EXPLAIN, debt
// reports).
func (m *Manager) RLock() { m.mu.RLock() }

// RUnlock releases the shared statement lock.
func (m *Manager) RUnlock() { m.mu.RUnlock() }

// Open registers a new session for user and returns it.
func (m *Manager) Open(user string) *Session {
	m.smu.Lock()
	m.nextID++
	s := &Session{id: m.nextID, user: user}
	m.sessions[s.id] = s
	m.smu.Unlock()
	mSessionsActive.Add(1)
	return s
}

// Close deregisters a session. Closing an already-closed session is a
// no-op.
func (m *Manager) Close(s *Session) {
	if s == nil {
		return
	}
	m.smu.Lock()
	_, open := m.sessions[s.id]
	delete(m.sessions, s.id)
	m.smu.Unlock()
	if open {
		s.state.Store(int32(StateClosed))
		mSessionsActive.Add(-1)
	}
}

// Sessions snapshots every open session, ordered by id.
func (m *Manager) Sessions() []Info {
	m.smu.Lock()
	ids := make([]int64, 0, len(m.sessions))
	for id := range m.sessions {
		ids = append(ids, id)
	}
	sess := make([]*Session, 0, len(ids))
	for _, s := range m.sessions {
		sess = append(sess, s)
	}
	m.smu.Unlock()
	// Sort by id outside the lock (sessions are immutable identities).
	for i := 1; i < len(sess); i++ {
		for j := i; j > 0 && sess[j-1].id > sess[j].id; j-- {
			sess[j-1], sess[j] = sess[j], sess[j-1]
		}
	}
	out := make([]Info, len(sess))
	for i, s := range sess {
		out[i] = Info{ID: s.id, User: s.user, State: s.State().String(), Statements: s.Statements()}
	}
	return out
}

// SetLimit bounds the number of concurrently-executing statements
// (0 = unbounded). Intended to be set before serving traffic; lowering
// the limit while statements are in flight takes effect as slots
// drain.
func (m *Manager) SetLimit(n int) {
	m.smu.Lock()
	defer m.smu.Unlock()
	if n < 0 {
		n = 0
	}
	m.limit = n
}

// QueueDepth returns the number of statements currently parked at the
// admission controller.
func (m *Manager) QueueDepth() int {
	m.smu.Lock()
	defer m.smu.Unlock()
	return len(m.queue)
}

// Admit acquires one statement slot, parking FIFO behind earlier
// arrivals when the engine is at its concurrency limit. It returns the
// measured queue wait (zero when admission was immediate) and the
// release function the caller must run when the statement finishes —
// after releasing the statement lock. The park is a bare channel
// receive with no lock held; sess (optional) is flipped to Queued for
// the duration so \sessions shows who is waiting.
func (m *Manager) Admit(sess *Session) (time.Duration, func()) {
	m.smu.Lock()
	if m.limit <= 0 {
		m.smu.Unlock()
		return 0, func() {}
	}
	if m.inUse < m.limit && len(m.queue) == 0 {
		m.inUse++
		m.smu.Unlock()
		return 0, m.release
	}
	ticket := make(chan struct{})
	m.queue = append(m.queue, ticket)
	mQueueDepth.Set(int64(len(m.queue)))
	m.smu.Unlock()
	mAdmissionWaits.Inc()
	if sess != nil {
		sess.state.Store(int32(StateQueued))
	}
	start := time.Now()
	<-ticket // FIFO hand-off: the releasing statement transferred its slot
	return time.Since(start), m.release
}

// release returns a statement slot, handing it to the oldest admission
// waiter if one is parked.
func (m *Manager) release() {
	m.smu.Lock()
	if len(m.queue) > 0 && m.inUse <= m.limit {
		ticket := m.queue[0]
		m.queue = m.queue[1:]
		mQueueDepth.Set(int64(len(m.queue)))
		m.smu.Unlock()
		close(ticket) // slot transfers; inUse unchanged
		return
	}
	m.inUse--
	m.smu.Unlock()
}
