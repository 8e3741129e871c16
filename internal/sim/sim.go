// Package sim is a discrete-event concurrency simulator. It replays
// per-statement demand profiles (CPU work, parallelism cap, blocking
// I/O, lock footprint — measured by executing each statement once in
// the engine) across many virtual clients contending for a fixed pool
// of virtual cores and striped locks.
//
// CPU is modelled as processor sharing with per-job parallelism caps
// and water-filling allocation, which reproduces the paper's
// concurrency behaviour: serial B+ tree plans coexist cheaply until
// cores saturate, while DOP-40 columnstore scans slow down roughly
// linearly with the number of concurrent scans (Appendix A.2). Lock
// semantics per isolation level follow Section 5.2.2: Read Committed
// readers gate on in-flight X locks, Serializable readers hold shared
// locks to end of statement, Snapshot readers take no locks but pay a
// version-chain CPU overhead, and writers hold X locks to statement
// end.
package sim

import (
	"container/heap"
	"math/rand"
	"sort"
	"time"

	"hybriddb/internal/lock"
)

// Isolation selects the concurrency-control behaviour.
type Isolation int

// Isolation levels used in the paper's experiments.
const (
	ReadCommitted Isolation = iota
	Snapshot
	Serializable
)

func (i Isolation) String() string {
	switch i {
	case ReadCommitted:
		return "RC"
	case Snapshot:
		return "SI"
	default:
		return "SR"
	}
}

// LockReq is one table's lock footprint for a statement.
type LockReq struct {
	Table     string
	Exclusive bool
	Rows      int64 // rows touched
	TableRows int64 // table size (stripe fraction)
}

// Job is the demand profile of one statement type.
type Job struct {
	Name    string
	CPUWork time.Duration // total CPU work across threads
	MaxDOP  int           // parallelism cap (>=1)
	IOTime  time.Duration // blocking I/O, not overlapped
	IsRead  bool
	Locks   []LockReq
}

// ClientGroup is a set of identical clients issuing jobs back to back.
type ClientGroup struct {
	Count int
	Pool  int // index into Config.Pools (core affinity)
	Pick  func(rng *rand.Rand) *Job
}

// Config describes one simulation.
type Config struct {
	Pools                []int // cores per pool
	Isolation            Isolation
	SnapshotReadOverhead float64 // CPU multiplier for SI reads (default 1.12)
	Groups               []ClientGroup
	Duration             time.Duration // virtual time to simulate
	Warmup               time.Duration // stats ignored before this
	Seed                 int64
	StripesPerTable      int
}

// JobStats aggregates completed-statement latencies for one job name.
type JobStats struct {
	Count     int64
	latencies []time.Duration
}

// Mean returns the average latency.
func (s *JobStats) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	var total time.Duration
	for _, l := range s.latencies {
		total += l
	}
	return total / time.Duration(s.Count)
}

// Percentile returns the p-th percentile latency (0 < p <= 100).
func (s *JobStats) Percentile(p float64) time.Duration {
	if len(s.latencies) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), s.latencies...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(p / 100 * float64(len(sorted)-1))
	return sorted[idx]
}

// Median returns the 50th percentile.
func (s *JobStats) Median() time.Duration { return s.Percentile(50) }

// Result aggregates a simulation run.
type Result struct {
	PerJob    map[string]*JobStats
	Completed int64
}

// Mean returns the mean latency across all completed statements.
func (r *Result) Mean() time.Duration {
	var total time.Duration
	var n int64
	for _, s := range r.PerJob {
		for _, l := range s.latencies {
			total += l
		}
		n += s.Count
	}
	if n == 0 {
		return 0
	}
	return total / time.Duration(n)
}

// --- event queue ---

type event struct {
	at  time.Duration
	seq int64
	fn  func()
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x interface{}) { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() interface{} {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}

// --- simulation ---

type clientState struct {
	id       int // position in Config order; breaks every tie between clients
	group    *ClientGroup
	job      *Job
	start    time.Duration // statement start
	remain   time.Duration // remaining CPU work
	rate     float64       // current core allocation
	locks    []LockReq     // consolidated, table-ordered footprints
	held     []*lock.Request
	nextLock int
}

type pool struct {
	cores int
	// active is the processor-sharing set, kept in client id order so
	// that water-filling ties and same-instant completions (and through
	// them lock grants and draws from the shared rng) come out the same
	// on every run.
	active []*clientState
	gen    int64 // invalidates stale completion events
}

type sim struct {
	cfg     Config
	rng     *rand.Rand
	now     time.Duration
	lastUpd time.Duration
	events  eventQueue
	seq     int64
	locks   *lock.Manager
	pools   []*pool
	stats   map[string]*JobStats
	done    int64
}

// Run executes the simulation.
func Run(cfg Config) *Result {
	if cfg.SnapshotReadOverhead == 0 {
		cfg.SnapshotReadOverhead = 1.12
	}
	s := &sim{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		locks: lock.NewManager(cfg.StripesPerTable),
		stats: make(map[string]*JobStats),
	}
	for _, c := range cfg.Pools {
		s.pools = append(s.pools, &pool{cores: c})
	}
	nextID := 0
	for gi := range cfg.Groups {
		g := &cfg.Groups[gi]
		for i := 0; i < g.Count; i++ {
			c := &clientState{id: nextID, group: g}
			nextID++
			s.schedule(0, func() { s.startStatement(c) })
		}
	}
	for len(s.events) > 0 {
		e := heap.Pop(&s.events).(*event)
		if e.at > cfg.Duration {
			break
		}
		s.settle(e.at)
		e.fn()
	}
	res := &Result{PerJob: s.stats, Completed: s.done}
	return res
}

func (s *sim) schedule(at time.Duration, fn func()) {
	s.seq++
	heap.Push(&s.events, &event{at: at, seq: s.seq, fn: fn})
}

// settle advances virtual time, draining CPU work at current rates.
func (s *sim) settle(to time.Duration) {
	dt := to - s.lastUpd
	if dt > 0 {
		for _, p := range s.pools {
			for _, c := range p.active {
				c.remain -= time.Duration(float64(dt) * c.rate)
				if c.remain < 0 {
					c.remain = 0
				}
			}
		}
	}
	s.lastUpd = to
	s.now = to
}

// startStatement picks the client's next job and begins lock
// acquisition.
func (s *sim) startStatement(c *clientState) {
	c.job = c.group.Pick(s.rng)
	c.start = s.now
	c.remain = c.job.CPUWork
	if s.cfg.Isolation == Snapshot && c.job.IsRead {
		c.remain = time.Duration(float64(c.remain) * s.cfg.SnapshotReadOverhead)
	}
	c.locks = consolidateLocks(c.job.Locks)
	c.nextLock = 0
	c.held = nil
	s.acquireNext(c)
}

// consolidateLocks merges a job's lock footprints to one request per
// table (X subsumes S) and orders them by table name. One request per
// table plus ordered acquisition (tables lexicographically, stripes
// ascending within a table) makes the wait-for graph acyclic, so the
// simulator cannot deadlock — the stand-in for a real system's
// deadlock detection and retry.
func consolidateLocks(locks []LockReq) []LockReq {
	byTable := make(map[string]*LockReq, len(locks))
	var order []string
	for _, l := range locks {
		m, ok := byTable[l.Table]
		if !ok {
			cp := l
			byTable[l.Table] = &cp
			order = append(order, l.Table)
			continue
		}
		m.Exclusive = m.Exclusive || l.Exclusive
		m.Rows += l.Rows
		if l.TableRows > m.TableRows {
			m.TableRows = l.TableRows
		}
	}
	sort.Strings(order)
	out := make([]LockReq, len(order))
	for i, t := range order {
		out[i] = *byTable[t]
	}
	return out
}

// acquireNext requests the job's lock footprints one table at a time.
func (s *sim) acquireNext(c *clientState) {
	for c.nextLock < len(c.locks) {
		lr := c.locks[c.nextLock]
		c.nextLock++
		if c.job.IsRead && s.cfg.Isolation == Snapshot {
			continue // snapshot readers take no locks
		}
		mode := lock.S
		if lr.Exclusive {
			mode = lock.X
		}
		req := &lock.Request{
			ID:      s.seq,
			Table:   lr.Table,
			Mode:    mode,
			Stripes: s.stripesFor(lr),
		}
		granted := false
		req.OnGranted = func() {
			if c.job.IsRead && s.cfg.Isolation == ReadCommitted {
				// RC readers only gate on in-flight X locks: release
				// shared stripes as soon as they are granted.
				s.locks.Release(req)
			} else {
				c.held = append(c.held, req)
			}
			if granted {
				// Asynchronous grant: resume the acquisition chain.
				s.acquireNext(c)
			}
		}
		if !s.locks.Acquire(req) {
			granted = true
			return // wait for OnGranted
		}
	}
	s.beginCPU(c)
}

// stripesFor maps a lock footprint to stripe indices.
func (s *sim) stripesFor(lr LockReq) []int {
	n := s.locks.StripesPerTable()
	rows := lr.Rows
	if rows <= 0 {
		rows = 1
	}
	var count int
	if lr.TableRows > 0 && rows >= lr.TableRows {
		count = n
	} else if lr.TableRows > 0 {
		frac := float64(rows) / float64(lr.TableRows)
		count = int(frac*float64(n)) + 1
	} else if rows >= int64(n) {
		count = n
	} else {
		count = int(rows)
	}
	if count > n {
		count = n
	}
	if count == n {
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		return all
	}
	out := make([]int, count)
	for i := range out {
		out[i] = s.rng.Intn(n)
	}
	return out
}

// beginCPU moves the client into its pool's processor-sharing set.
func (s *sim) beginCPU(c *clientState) {
	p := s.pools[c.group.Pool]
	i := sort.Search(len(p.active), func(i int) bool { return p.active[i].id > c.id })
	p.active = append(p.active, nil)
	copy(p.active[i+1:], p.active[i:])
	p.active[i] = c
	s.recompute(p)
}

// recompute reallocates the pool's cores (water-filling with per-job
// caps) and schedules the next completion checkpoint.
func (s *sim) recompute(p *pool) {
	p.gen++
	gen := p.gen
	if len(p.active) == 0 {
		return
	}
	// Water-filling allocation.
	type slot struct {
		c   *clientState
		cap float64
	}
	slots := make([]slot, 0, len(p.active))
	for _, c := range p.active {
		dop := c.job.MaxDOP
		if dop < 1 {
			dop = 1
		}
		slots = append(slots, slot{c: c, cap: float64(dop)})
	}
	sort.SliceStable(slots, func(i, j int) bool { return slots[i].cap < slots[j].cap })
	cores := float64(p.cores)
	remainingJobs := len(slots)
	for _, sl := range slots {
		share := cores / float64(remainingJobs)
		rate := sl.cap
		if share < rate {
			rate = share
		}
		sl.c.rate = rate
		cores -= rate
		remainingJobs--
	}
	// Next completion.
	var next time.Duration = -1
	for _, c := range p.active {
		if c.rate <= 0 {
			continue
		}
		fin := s.now + time.Duration(float64(c.remain)/c.rate) + 1
		if next < 0 || fin < next {
			next = fin
		}
	}
	if next >= 0 {
		s.schedule(next, func() {
			if p.gen != gen {
				return // stale checkpoint
			}
			s.checkCompletions(p)
		})
	}
}

// checkCompletions finishes any job whose CPU work has drained.
func (s *sim) checkCompletions(p *pool) {
	var finished []*clientState
	running := p.active[:0]
	for _, c := range p.active {
		if c.remain <= 0 {
			finished = append(finished, c)
		} else {
			running = append(running, c)
		}
	}
	p.active = running
	for _, c := range finished {
		s.finishCPU(c)
	}
	s.recompute(p)
}

// finishCPU moves the client to its I/O phase (or completion).
func (s *sim) finishCPU(c *clientState) {
	if c.job.IOTime > 0 {
		s.schedule(s.now+c.job.IOTime, func() { s.complete(c) })
		return
	}
	s.complete(c)
}

// complete releases locks, records the latency, and loops the client.
func (s *sim) complete(c *clientState) {
	for _, r := range c.held {
		s.locks.Release(r)
	}
	c.held = nil
	if s.now >= s.cfg.Warmup {
		st, ok := s.stats[c.job.Name]
		if !ok {
			st = &JobStats{}
			s.stats[c.job.Name] = st
		}
		st.Count++
		st.latencies = append(st.latencies, s.now-c.start)
		s.done++
	}
	s.schedule(s.now, func() { s.startStatement(c) })
}
