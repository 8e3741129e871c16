// Package exec mirrors the executor's one spawn/join point and one
// fork/merge point for the confine fixtures.
package exec

import (
	"sync"
	"sync/atomic"

	"hybriddb/internal/vclock"
)

// spawn is the one function in exec that may hold a go statement.
func spawn(n int, fn func(i int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i)
		}()
	}
	wg.Wait()
}

// runWorkers is the one function that may fork and merge trackers.
func runWorkers(tr *vclock.Tracker, w int, body func(tr *vclock.Tracker)) {
	forks := make([]*vclock.Tracker, w)
	for i := range forks {
		forks[i] = tr.Fork()
	}
	spawn(w, func(i int) { body(forks[i]) })
	for _, f := range forks {
		tr.Merge(f)
	}
}

// sideGather forks and spawns on its own: a second place to forget the
// merge or the wait.
func sideGather(tr *vclock.Tracker, done chan struct{}) {
	f := tr.Fork() // want `vclock.Tracker Fork/Merge call in sideGather: package exec may hold it only in runWorkers`
	go func() {    // want `go statement in sideGather: package exec may hold it only in spawn`
		f.ChargeParallelCPU(1, 1.0)
		close(done)
	}()
	<-done
	tr.Merge(f) // want `Fork/Merge call in sideGather`
}

// cursor claims morsels; typed atomics are the sanctioned form.
type cursor struct {
	next   atomic.Int32
	legacy int64
}

func (c *cursor) claim() int32 { return c.next.Add(1) - 1 }

func (c *cursor) bump() {
	atomic.AddInt64(&c.legacy, 1) // want `package-level sync/atomic function .* is not allowed in package exec`
}

// lateInit hides a goroutine in a package-level initializer.
var lateInit = func() int {
	go func() {}() // want `go statement in a package-level declaration`
	return 0
}()

// suppressed documents a deliberate exception.
func suppressed(done chan struct{}) {
	//lint:ignore confine fixture: exercising the suppression syntax end to end
	go close(done)
}
