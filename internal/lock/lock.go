// Package lock implements the striped lock manager the concurrency
// simulator uses. Each table is divided into a fixed number of lock
// stripes (standing in for row/rowgroup lock granularity); a statement
// acquires its stripes in sorted order (deadlock-free), waits FIFO
// behind conflicting holders, and is notified when fully granted.
//
// Isolation-level behaviour is expressed by how callers use the
// manager: Read Committed scans acquire-and-release S stripes (they
// only gate on in-flight X locks), Serializable scans hold S stripes to
// end of statement, Snapshot reads take no locks at all (they pay a
// version-read CPU overhead instead), and writers always hold X stripes
// to end of statement.
package lock

import (
	"fmt"
	"sort"
)

// Mode is a lock mode.
type Mode int

// Lock modes.
const (
	S Mode = iota
	X
)

func (m Mode) String() string {
	if m == S {
		return "S"
	}
	return "X"
}

// Request is one statement's lock acquisition across a set of stripes.
type Request struct {
	ID      int64
	Table   string
	Mode    Mode
	Stripes []int
	// OnGranted fires exactly once when every stripe is held.
	OnGranted func()

	next    int // next stripe index to acquire
	granted bool
}

// Granted reports whether the request holds all its stripes.
func (r *Request) Granted() bool { return r.granted }

type waiter struct {
	req *Request
}

type stripe struct {
	sCount  int
	xHolder *Request
	queue   []waiter
}

func (st *stripe) compatible(m Mode) bool {
	if st.xHolder != nil {
		return false
	}
	if m == X {
		return st.sCount == 0
	}
	return true
}

type tableLocks struct {
	stripes []stripe
}

// Manager tracks lock state across tables.
type Manager struct {
	perTable int
	tables   map[string]*tableLocks
}

// NewManager creates a manager with the given stripes per table.
func NewManager(stripesPerTable int) *Manager {
	if stripesPerTable <= 0 {
		stripesPerTable = 256
	}
	return &Manager{perTable: stripesPerTable, tables: make(map[string]*tableLocks)}
}

// StripesPerTable returns the stripe count.
func (m *Manager) StripesPerTable() int { return m.perTable }

func (m *Manager) table(name string) *tableLocks {
	t, ok := m.tables[name]
	if !ok {
		t = &tableLocks{stripes: make([]stripe, m.perTable)}
		m.tables[name] = t
	}
	return t
}

// Acquire starts acquiring the request's stripes (sorted, one at a
// time). It returns true when fully granted synchronously; otherwise
// the request is queued and OnGranted fires later.
func (m *Manager) Acquire(r *Request) bool {
	if len(r.Stripes) == 0 {
		r.granted = true
		if r.OnGranted != nil {
			r.OnGranted()
		}
		return true
	}
	sort.Ints(r.Stripes)
	// Deduplicate.
	out := r.Stripes[:1]
	for _, s := range r.Stripes[1:] {
		if s != out[len(out)-1] {
			out = append(out, s)
		}
	}
	r.Stripes = out
	r.next = 0
	return m.advance(r)
}

// advance acquires stripes until blocked or done. Returns true if the
// request became fully granted.
func (m *Manager) advance(r *Request) bool {
	t := m.table(r.Table)
	for r.next < len(r.Stripes) {
		st := &t.stripes[r.Stripes[r.next]]
		// FIFO fairness: a stripe with waiters blocks new acquirers.
		if len(st.queue) > 0 || !st.compatible(r.Mode) {
			st.queue = append(st.queue, waiter{req: r})
			return false
		}
		m.hold(st, r)
		r.next++
	}
	r.granted = true
	if r.OnGranted != nil {
		r.OnGranted()
	}
	return true
}

func (m *Manager) hold(st *stripe, r *Request) {
	if r.Mode == X {
		st.xHolder = r
	} else {
		st.sCount++
	}
}

// Release drops every stripe the request currently holds (all stripes
// if granted, the prefix acquired so far otherwise) and removes it
// from any wait queue. Waiters unblocked by the release continue their
// own acquisition, possibly firing their OnGranted callbacks.
func (m *Manager) Release(r *Request) {
	t := m.table(r.Table)
	held := r.next
	if r.granted {
		held = len(r.Stripes)
	}
	for i := 0; i < held; i++ {
		st := &t.stripes[r.Stripes[i]]
		if r.Mode == X {
			if st.xHolder != r {
				panic(fmt.Sprintf("lock: release of X stripe %d not held by %d", r.Stripes[i], r.ID))
			}
			st.xHolder = nil
		} else {
			st.sCount--
		}
	}
	// Remove r from the queue it may be waiting in.
	if !r.granted && r.next < len(r.Stripes) {
		st := &t.stripes[r.Stripes[r.next]]
		for i, w := range st.queue {
			if w.req == r {
				st.queue = append(st.queue[:i], st.queue[i+1:]...)
				break
			}
		}
	}
	r.granted = false
	// Wake waiters on the released stripes.
	for i := 0; i < held; i++ {
		m.grantWaiters(&t.stripes[r.Stripes[i]])
	}
}

// grantWaiters admits queued requests in FIFO order while compatible.
func (m *Manager) grantWaiters(st *stripe) {
	for len(st.queue) > 0 {
		r := st.queue[0].req
		if !st.compatible(r.Mode) {
			return
		}
		st.queue = st.queue[1:]
		m.hold(st, r)
		r.next++
		m.advance(r)
		// advance may have re-queued r at a later stripe or granted it;
		// either way continue admitting this stripe's queue.
	}
}
