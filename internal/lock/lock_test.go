package lock

import "testing"

func req(id int64, mode Mode, stripes ...int) *Request {
	return &Request{ID: id, Table: "t", Mode: mode, Stripes: stripes}
}

func TestSharedCompatible(t *testing.T) {
	m := NewManager(8)
	a := req(1, S, 0, 1)
	b := req(2, S, 1, 2)
	if !m.Acquire(a) || !m.Acquire(b) {
		t.Fatal("shared locks should not conflict")
	}
	m.Release(a)
	m.Release(b)
}

func TestExclusiveBlocks(t *testing.T) {
	m := NewManager(8)
	a := req(1, X, 3)
	if !m.Acquire(a) {
		t.Fatal("first X should grant")
	}
	var granted bool
	b := req(2, S, 3)
	b.OnGranted = func() { granted = true }
	if m.Acquire(b) {
		t.Fatal("S over X should block")
	}
	if granted {
		t.Fatal("premature grant")
	}
	m.Release(a)
	if !granted || !b.Granted() {
		t.Fatal("S not granted after X release")
	}
	m.Release(b)
}

func TestXWaitsForS(t *testing.T) {
	m := NewManager(8)
	a := req(1, S, 5)
	b := req(2, S, 5)
	m.Acquire(a)
	m.Acquire(b)
	var granted bool
	c := req(3, X, 5)
	c.OnGranted = func() { granted = true }
	if m.Acquire(c) {
		t.Fatal("X over S should block")
	}
	m.Release(a)
	if granted {
		t.Fatal("X granted with one S still held")
	}
	m.Release(b)
	if !granted {
		t.Fatal("X not granted after all S released")
	}
}

func TestFIFOFairness(t *testing.T) {
	// A waiting X prevents later S requests from starving it.
	m := NewManager(8)
	a := req(1, S, 0)
	m.Acquire(a)
	var xGranted, sGranted bool
	x := req(2, X, 0)
	x.OnGranted = func() { xGranted = true }
	m.Acquire(x)
	s := req(3, S, 0)
	s.OnGranted = func() { sGranted = true }
	if m.Acquire(s) {
		t.Fatal("later S should queue behind waiting X")
	}
	m.Release(a)
	if !xGranted || sGranted {
		t.Fatalf("grant order wrong: x=%v s=%v", xGranted, sGranted)
	}
	m.Release(x)
	if !sGranted {
		t.Fatal("S not granted after X release")
	}
}

func TestMultiStripeOrderedAcquisition(t *testing.T) {
	m := NewManager(16)
	a := req(1, X, 7)
	m.Acquire(a)
	var granted bool
	b := req(2, X, 9, 7, 3) // unsorted input; acquires 3 then blocks on 7
	b.OnGranted = func() { granted = true }
	if m.Acquire(b) {
		t.Fatal("should block on stripe 7")
	}
	// Stripe 3 is already held by b; a third request on 3 must queue.
	c := req(3, X, 3)
	if m.Acquire(c) {
		t.Fatal("stripe 3 should be held by the partially granted request")
	}
	m.Release(a)
	if !granted {
		t.Fatal("b not granted after release")
	}
	m.Release(b)
	if !c.Granted() {
		t.Fatal("c not granted after b release")
	}
}

func TestReleaseWhileWaiting(t *testing.T) {
	m := NewManager(8)
	a := req(1, X, 2)
	m.Acquire(a)
	b := req(2, X, 1, 2) // acquires 1, waits on 2
	m.Acquire(b)
	// Abandon b: stripe 1 must be freed and the queue on 2 cleaned.
	m.Release(b)
	c := req(3, X, 1)
	if !m.Acquire(c) {
		t.Fatal("stripe 1 not released by abandoned waiter")
	}
	m.Release(a)
	d := req(4, X, 2)
	if !m.Acquire(d) {
		t.Fatal("queue not cleaned after abandoned waiter")
	}
}

func TestEmptyRequest(t *testing.T) {
	m := NewManager(8)
	fired := false
	r := &Request{ID: 1, Table: "t", Mode: S, OnGranted: func() { fired = true }}
	if !m.Acquire(r) || !fired {
		t.Fatal("empty request should grant immediately")
	}
}

func TestDuplicateStripes(t *testing.T) {
	m := NewManager(8)
	r := req(1, X, 4, 4, 4)
	if !m.Acquire(r) {
		t.Fatal("dup stripes should grant")
	}
	m.Release(r)
	r2 := req(2, X, 4)
	if !m.Acquire(r2) {
		t.Fatal("stripe not released (double-hold from dups?)")
	}
}
