// Package exec mirrors the batch executor's scratch-buffer idiom for
// the bufalias fixtures: an operator owning ping-pong selection
// buffers (selBuf) and a scratch row, reused across nextBatch calls.
package exec

// batch mirrors vec.Batch: Sel is valid until the producer's next
// call.
type batch struct {
	Sel []int
}

type source struct {
	selBuf  [2][]int
	selIdx  int
	scratch []int
	rows    []int // not a scratch buffer: name carries no buf/scratch
}

// nextSel is the production idiom: an unexported helper handing the
// buffer to its own operator. Clean.
func (s *source) nextSel(n int) []int {
	s.selIdx ^= 1
	if cap(s.selBuf[s.selIdx]) < n {
		s.selBuf[s.selIdx] = make([]int, 0, n)
	}
	return s.selBuf[s.selIdx][:0]
}

// nextBatch reuses the scratch selection internally. Clean.
func (s *source) nextBatch(b *batch) {
	sel := s.nextSel(len(b.Sel))
	for _, p := range b.Sel {
		if p%2 == 0 {
			sel = append(sel, p)
		}
	}
	b.Sel = sel
}

// Selection hands the live scratch buffer to any caller, which will
// observe it mutating on the next batch.
func (s *source) Selection() []int {
	return s.scratch // want `scratch buffer source.scratch returned from exported Selection`
}

// shipAsync moves filtering to a goroutine that races the owner's
// reuse of the buffer.
func (s *source) shipAsync(done chan struct{}) {
	go func() { // want `scratch buffer source.selBuf escapes to a goroutine`
		for range s.selBuf[0] {
		}
		close(done)
	}()
}

// publish sends the scratch row to another goroutine over a channel.
func (s *source) publish(out chan []int) {
	out <- s.scratch // want `scratch buffer source.scratch sent over a channel`
}

// Rows returns a non-scratch field: exported escape is fine for
// ordinary state.
func (s *source) Rows() []int {
	return s.rows
}

// copyOut snapshots the buffer before it escapes: the copy breaks the
// alias, and the analyzer does not flag the copied value.
func (s *source) CopyOut() []int {
	out := make([]int, len(s.scratch))
	copy(out, s.scratch)
	return out
}

// suppressed hands out the buffer deliberately, with the reason
// written down.
func (s *source) Suppressed() []int {
	//lint:ignore bufalias fixture: exercising the suppression syntax end to end
	return s.scratch
}

// selSource mirrors the predicate kernels' selection-vector idiom: an
// unexported sel-prefixed slice is reused scratch; the exported Sel
// field is the documented public hand-off surface and stays exempt.
type selSource struct {
	sel []int
	Sel []int
}

// Selected leaks the kernel's reusable selection vector.
func (s *selSource) Selected() []int {
	return s.sel // want `scratch buffer selSource.sel returned from exported Selected`
}

// PublicSel returns the exported selection view, which is allowed: its
// validity contract is documented on the type, like vec.Batch.Sel.
func (s *selSource) PublicSel() []int {
	return s.Sel
}

// shipSelAsync races the owner's per-batch reuse of the selection.
func (s *selSource) shipSelAsync(done chan struct{}) {
	go func() { // want `scratch buffer selSource.sel escapes to a goroutine`
		for range s.sel {
		}
		close(done)
	}()
}

// rowBatch mirrors exec.SlotBatch / vec.Batch: a batch-typed struct
// whose vectors are recycled by the producer on its next call. The
// type name alone marks fields of this type as reuse-scoped.
type rowBatch struct {
	vals []int
}

// batchCursor mirrors exec.BatchCursor: the single-owner pull boundary
// whose returned batch is valid until the next NextBatch call.
type batchCursor interface {
	NextBatch() (*rowBatch, bool)
}

// op mirrors a batch operator: an input cursor and a reused output
// batch, both batch-typed fields (neither name matches buf/scratch).
type op struct {
	in  batchCursor
	out rowBatch
}

// NextBatch returns the reused output batch across the documented
// hand-off boundary. Exempt by method name.
func (o *op) NextBatch() (*rowBatch, bool) {
	o.out.vals = o.out.vals[:0]
	return &o.out, true
}

// Batch mirrors colstore's Scanner.Batch accessor: the other
// documented hand-off surface, exempt by method name.
func (o *op) Batch() *rowBatch { return &o.out }

// Current leaks the reused batch through an exported method that is
// NOT a hand-off boundary: callers have no reuse contract to read.
func (o *op) Current() *rowBatch {
	return &o.out // want `scratch buffer op.out returned from exported Current`
}

// shipCursorAsync hands the pull cursor to a goroutine: batches pulled
// there race the owner's drain of the same single-owner handle.
func (o *op) shipCursorAsync(done chan struct{}) {
	go func() { // want `scratch buffer op.in escapes to a goroutine`
		o.in.NextBatch()
		close(done)
	}()
}

// publishBatch sends the live output batch to another goroutine, which
// reads it while NextBatch recycles its vectors.
func (o *op) publishBatch(out chan *rowBatch) {
	out <- &o.out // want `scratch buffer op.out sent over a channel`
}

// wrapped mirrors a scratch buffer buried one struct deep: rowBuf's
// type carries a slice transitively, and shallow-copying the struct
// keeps the inner slice header aliased to the original.
type wrapped struct {
	vals []int
}

type deepSource struct {
	rowBuf wrapped
}

// Buffer returns the scratch struct by value; the copy still aliases
// rowBuf.vals, so the return is flagged like a direct slice.
func (d *deepSource) Buffer() wrapped {
	return d.rowBuf // want `scratch buffer deepSource.rowBuf returned from exported Buffer`
}

// spawn mirrors exec.spawn, the executor's one spawn/join point: fn
// runs on n goroutines, meanwhile on the caller.
func spawn(n int, fn func(i int) error, meanwhile func()) error { return nil }

// buildAsync hands the scratch row to spawned workers: the go statement
// lives in spawn, the capture is here.
func (s *source) buildAsync() error {
	return spawn(2, func(i int) error { // want `scratch buffer source.scratch escapes to a goroutine`
		s.scratch[i] = i
		return nil
	}, nil)
}

// chargeMeanwhile touches the scratch row only in meanwhile, which runs
// on the owner's goroutine, and ordinary state in the workers. Clean.
func (s *source) chargeMeanwhile() error {
	return spawn(2, func(i int) error {
		s.rows[i] = i
		return nil
	}, func() { s.scratch = s.scratch[:0] })
}
