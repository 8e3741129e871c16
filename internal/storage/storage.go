// Package storage provides the simulated storage substrate: a page
// store holding index and segment objects, and an LRU buffer pool that
// decides which pages are memory resident. Access through the pool
// charges virtual I/O time to a vclock.Tracker on misses, which is how
// the engine reproduces the paper's hot- vs. cold-run experiments.
//
// Pages are Go objects (B+ tree nodes, columnstore segments, heap
// pages) with an accounted byte size rather than serialized 8 KB
// buffers: the simulated disk never needs the bytes, only their size
// and access pattern (random page fetch vs. sequential segment read).
package storage

import (
	"container/list"
	"fmt"
	"sync"

	"hybriddb/internal/metrics"
	"hybriddb/internal/vclock"
)

// Process-wide buffer-pool counters (all Stores in the process share
// them; per-Store numbers remain available via Stats).
var (
	mPoolHits      = metrics.NewCounter("hybriddb_pool_hits_total", "buffer pool hits")
	mPoolMisses    = metrics.NewCounter("hybriddb_pool_misses_total", "buffer pool misses")
	mPoolEvictions = metrics.NewCounter("hybriddb_pool_evictions_total", "buffer pool evictions")
	mPoolReadBytes = metrics.NewCounter("hybriddb_pool_read_bytes_total", "bytes read into the buffer pool on misses")
)

// PageID identifies a page in a Store.
type PageID int64

// Page is any object that can live in the store. ByteSize is the
// on-disk size charged when the page is read or written.
type Page interface {
	ByteSize() int64
}

type entry struct {
	id   PageID
	page Page
	size int64
	elem *list.Element // position in LRU, nil if not resident
}

// Store is a simulated disk plus buffer pool. All methods are safe for
// concurrent use.
type Store struct {
	mu        sync.Mutex
	pages     map[PageID]*entry
	next      PageID
	lru       *list.List // front = most recently used; values are *entry
	resident  int64      // bytes currently in the pool
	capacity  int64      // pool capacity in bytes
	missCount int64
	hitCount  int64
}

// NewStore creates a store whose buffer pool holds up to poolBytes of
// resident pages. A capacity of 0 means unbounded (everything stays
// hot once touched).
func NewStore(poolBytes int64) *Store {
	return &Store{
		pages:    make(map[PageID]*entry),
		lru:      list.New(),
		capacity: poolBytes,
	}
}

// Capacity returns the buffer-pool capacity in bytes (0 = unbounded).
func (s *Store) Capacity() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.capacity
}

// Allocate adds a new page and returns its ID. Newly allocated pages
// are resident (they were just produced in memory).
func (s *Store) Allocate(p Page) PageID {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.next++
	e := &entry{id: s.next, page: p, size: p.ByteSize()}
	s.pages[e.id] = e
	s.admit(e)
	return e.id
}

// Write replaces the contents of an existing page. The page becomes
// resident. Callers charge write I/O themselves (writes are usually
// deferred/log-structured, so the engine charges them where the paper's
// cost arises: DML statements and index builds).
func (s *Store) Write(id PageID, p Page) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.pages[id]
	if !ok {
		panic(fmt.Sprintf("storage: write to freed page %d", id))
	}
	if e.elem != nil {
		s.resident -= e.size
	}
	e.page = p
	e.size = p.ByteSize()
	if e.elem != nil {
		s.resident += e.size
		s.evictOver()
	} else {
		s.admit(e)
	}
}

// Free removes a page.
func (s *Store) Free(id PageID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.pages[id]
	if !ok {
		return
	}
	if e.elem != nil {
		s.lru.Remove(e.elem)
		s.resident -= e.size
	}
	delete(s.pages, id)
}

// Get fetches a page. If it is not resident the tracker is charged one
// random read (sequential=false) or a prefetchable sequential read
// (sequential=true) of the page's size, and the page is admitted to the
// pool. A nil tracker is a pure peek: no accounting and no buffer-pool
// state change, so maintenance and statistics paths cannot perturb
// hot/cold experiments.
func (s *Store) Get(tr *vclock.Tracker, id PageID, sequential bool) Page {
	s.mu.Lock()
	e, ok := s.pages[id]
	if !ok {
		s.mu.Unlock()
		panic(fmt.Sprintf("storage: get of freed page %d", id))
	}
	if tr == nil {
		s.mu.Unlock()
		return e.page
	}
	if e.elem != nil {
		s.lru.MoveToFront(e.elem)
		s.hitCount++
		s.mu.Unlock()
		mPoolHits.Inc()
		if tr != nil {
			tr.PagesRead++
		}
		return e.page
	}
	s.missCount++
	s.admit(e)
	size := e.size
	s.mu.Unlock()
	mPoolMisses.Inc()
	mPoolReadBytes.Add(size)
	if tr != nil {
		tr.PagesRead++
		if sequential {
			tr.ChargeSeqRead(size)
		} else {
			tr.ChargeRandRead(size, 1)
		}
	}
	return e.page
}

// SizeOf returns the byte size of a page without touching the buffer
// pool (no residency change, no charge). Used for size bookkeeping.
func (s *Store) SizeOf(id PageID) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.pages[id]
	if !ok {
		return 0
	}
	return e.size
}

// Contains reports whether the page is currently resident (test hook).
func (s *Store) Contains(id PageID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.pages[id]
	return ok && e.elem != nil
}

// admit inserts e into the pool, evicting LRU pages as needed.
// Caller holds s.mu.
func (s *Store) admit(e *entry) {
	e.elem = s.lru.PushFront(e)
	s.resident += e.size
	s.evictOver()
}

// evictOver evicts least-recently-used pages until the pool fits its
// capacity, never evicting the most recent page. Caller holds s.mu.
func (s *Store) evictOver() {
	if s.capacity <= 0 {
		return
	}
	for s.resident > s.capacity && s.lru.Len() > 1 {
		back := s.lru.Back()
		ev := back.Value.(*entry)
		s.lru.Remove(back)
		ev.elem = nil
		s.resident -= ev.size
		mPoolEvictions.Inc()
	}
}

// Prewarm marks every page resident regardless of capacity, modelling a
// hot run where the working set has been read before measurement.
func (s *Store) Prewarm() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.pages {
		if e.elem == nil {
			e.elem = s.lru.PushFront(e)
			s.resident += e.size
		}
	}
}

// Cool evicts every page, modelling a cold run (dropped caches).
func (s *Store) Cool() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.pages {
		if e.elem != nil {
			s.lru.Remove(e.elem)
			e.elem = nil
		}
	}
	s.resident = 0
}

// ResidentBytes returns the bytes currently held in the pool.
func (s *Store) ResidentBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.resident
}

// TotalBytes returns the byte size of every page in the store (the
// on-disk footprint).
func (s *Store) TotalBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var total int64
	for _, e := range s.pages {
		total += e.size
	}
	return total
}

// Stats returns cumulative pool hits and misses.
func (s *Store) Stats() (hits, misses int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hitCount, s.missCount
}

// PageSize is the engine's nominal page size (SQL Server uses 8 KB
// pages for B+ trees and heaps).
const PageSize = 8192
