// Package engine mirrors the background tuple mover's service
// goroutine for the confine fixtures.
package engine

import "hybriddb/internal/vclock"

type mover struct{ stop, done chan struct{} }

func (m *mover) loop() { <-m.stop; close(m.done) }

// EnableTupleMover may start the one service goroutine.
func EnableTupleMover() *mover {
	m := &mover{stop: make(chan struct{}), done: make(chan struct{})}
	go m.loop()
	return m
}

// warmCache starts a second, unjoined goroutine.
func warmCache(m *mover) {
	go m.loop() // want `go statement in warmCache: package engine may hold it only in EnableTupleMover`
}

// stepTracker forks outside the executor.
func stepTracker(tr *vclock.Tracker) *vclock.Tracker {
	return tr.Fork() // want `vclock.Tracker Fork/Merge call is not allowed in package engine`
}
