package session

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestOpenCloseSessions(t *testing.T) {
	m := NewManager()
	a := m.Open("alice")
	b := m.Open("bob")
	if a.ID() == b.ID() {
		t.Fatalf("session ids collide: %d", a.ID())
	}
	infos := m.Sessions()
	if len(infos) != 2 {
		t.Fatalf("Sessions() = %d entries, want 2", len(infos))
	}
	if infos[0].ID >= infos[1].ID {
		t.Fatalf("sessions not ordered by id: %+v", infos)
	}
	if infos[0].User != "alice" || infos[1].User != "bob" {
		t.Fatalf("unexpected users: %+v", infos)
	}
	m.Close(a)
	m.Close(a) // double close is a no-op
	if got := len(m.Sessions()); got != 1 {
		t.Fatalf("after close: %d sessions, want 1", got)
	}
	if a.State() != StateClosed {
		t.Fatalf("closed session state = %v, want closed", a.State())
	}
	m.Close(b)
}

func TestAdmitUnboundedNeverWaits(t *testing.T) {
	m := NewManager()
	for i := 0; i < 100; i++ {
		wait, release := m.Admit(nil)
		if wait != 0 {
			t.Fatalf("unbounded Admit waited %v", wait)
		}
		release()
	}
}

func TestAdmitBoundsConcurrency(t *testing.T) {
	m := NewManager()
	const limit, n = 3, 32
	m.SetLimit(limit)
	var cur, max, waited atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wait, release := m.Admit(nil)
			defer release()
			if wait > 0 {
				waited.Add(1)
			}
			c := cur.Add(1)
			for {
				old := max.Load()
				if c <= old || max.CompareAndSwap(old, c) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			cur.Add(-1)
		}()
	}
	wg.Wait()
	if got := max.Load(); got > limit {
		t.Fatalf("max concurrent admitted = %d, want <= %d", got, limit)
	}
	if waited.Load() == 0 {
		t.Fatalf("no goroutine queued with %d runners over limit %d", n, limit)
	}
	if d := m.QueueDepth(); d != 0 {
		t.Fatalf("queue depth after drain = %d, want 0", d)
	}
}

func TestAdmitFIFO(t *testing.T) {
	m := NewManager()
	m.SetLimit(1)
	_, hold := m.Admit(nil) // occupy the only slot

	const waiters = 8
	order := make(chan int, waiters)
	var started sync.WaitGroup
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		started.Add(1)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Serialize arrival order: each waiter enqueues only after the
			// previous one is parked (queue depth == i).
			for m.QueueDepth() != i {
				time.Sleep(50 * time.Microsecond)
			}
			started.Done()
			_, release := m.Admit(nil)
			order <- i
			release()
		}(i)
		// Wait until waiter i is actually in the queue before spawning i+1.
		for m.QueueDepth() != i+1 {
			time.Sleep(50 * time.Microsecond)
		}
	}
	started.Wait()
	hold()
	wg.Wait()
	close(order)
	prev := -1
	for got := range order {
		if got != prev+1 {
			t.Fatalf("admission order violated FIFO: got %d after %d", got, prev)
		}
		prev = got
	}
}

func TestPreparedLifecycle(t *testing.T) {
	m := NewManager()
	s := m.Open("u")
	defer m.Close(s)
	p, err := s.Prepare("SELECT a FROM t WHERE a > 1")
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	if p.SQL != "SELECT a FROM t WHERE a > 1" || p.Stmt == nil {
		t.Fatalf("prepared = %+v", p)
	}
	got, ok := s.Prepared(p.ID)
	if !ok || got != p {
		t.Fatalf("Prepared(%d) = %v, %v", p.ID, got, ok)
	}
	if !s.ClosePrepared(p.ID) {
		t.Fatalf("ClosePrepared(%d) = false", p.ID)
	}
	if s.ClosePrepared(p.ID) {
		t.Fatalf("double ClosePrepared(%d) = true", p.ID)
	}
	if _, err := s.Prepare("NOT SQL AT ALL %%%"); err == nil {
		t.Fatalf("Prepare of garbage succeeded")
	}
}

func TestSessionDefaults(t *testing.T) {
	m := NewManager()
	s := m.Open("u")
	defer m.Close(s)
	if d := s.Defaults(); d != (ExecOptions{}) {
		t.Fatalf("zero defaults = %+v", d)
	}
	want := ExecOptions{Parallelism: 4, NoColumnstore: true}
	s.SetDefaults(want)
	if d := s.Defaults(); d != want {
		t.Fatalf("Defaults() = %+v, want %+v", d, want)
	}
}
