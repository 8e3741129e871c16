package exec

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hybriddb/internal/plan"
	"hybriddb/internal/sql"
	"hybriddb/internal/value"
	"hybriddb/internal/vclock"
	"hybriddb/internal/vec"
)

func testCtx() *Context {
	return &Context{Tr: vclock.NewTracker(vclock.DefaultModel(vclock.DRAM)), TotalSlots: 2, DOP: 1, Workers: 1}
}

// TestMergeTreeStableSort checks the tournament merge against the
// ground truth: stable-sorting the concatenation of the runs. Runs are
// stable-sorted slices of one global sequence (as morsel runs are
// slices of the serial scan order), keys include ties and a DESC
// direction, so any tie-break or ordering bug in the tree shows up as
// a row-for-row divergence.
func TestMergeTreeStableSort(t *testing.T) {
	keys := []plan.SortKey{
		{Expr: &sql.ColRef{Slot: 0, Kind: value.KindInt}},
		{Expr: &sql.ColRef{Slot: 1, Kind: value.KindInt}, Desc: true},
	}
	cmp := compileSortKeys(keys)
	rng := rand.New(rand.NewSource(42))
	for _, shape := range []struct{ rows, runs int }{
		{0, 1}, {1, 1}, {100, 1}, {100, 3}, {257, 4}, {1000, 7}, {500, 13},
	} {
		all := make([]value.Row, shape.rows)
		for i := range all {
			// Narrow domains force ties on both keys.
			all[i] = value.Row{value.NewInt(rng.Int63n(20)), value.NewInt(rng.Int63n(5))}
		}
		runs := make([][]value.Row, shape.runs)
		per := (len(all) + shape.runs - 1) / shape.runs
		for ri := range runs {
			lo := ri * per
			hi := lo + per
			if lo > len(all) {
				lo = len(all)
			}
			if hi > len(all) {
				hi = len(all)
			}
			run := append([]value.Row(nil), all[lo:hi]...)
			sortRowsCharged(testCtx(), cmp, len(keys), run)
			runs[ri] = run
		}
		want := append([]value.Row(nil), all...)
		sortRowsCharged(testCtx(), cmp, len(keys), want)

		for _, limit := range []int64{0, 1, 7, int64(shape.rows), int64(shape.rows) + 5} {
			got, _ := mergeSortedRuns(testCtx(), cmp, len(keys), runs, limit)
			wantN := len(want)
			if limit > 0 && int(limit) < wantN {
				wantN = int(limit)
			}
			if len(got) != wantN {
				t.Fatalf("rows=%d runs=%d limit=%d: merged %d rows, want %d",
					shape.rows, shape.runs, limit, len(got), wantN)
			}
			for i := range got {
				if value.Compare(got[i][0], want[i][0]) != 0 || value.Compare(got[i][1], want[i][1]) != 0 {
					t.Fatalf("rows=%d runs=%d limit=%d: row %d = %v, want %v",
						shape.rows, shape.runs, limit, i, got[i], want[i])
				}
			}
		}
	}
}

// TestRunWorkersCoverage checks the worker pool's invariants at any
// worker count, including counts that exceed the morsel count: every
// morsel index is executed exactly once, and the per-morsel charges
// reach ctx.Tr exactly once (a dropped or twice-merged fork changes the
// totals against the inline w=1 run). A body that panics on one morsel
// fails the run with a *PanicError, and no worker is still running when
// runWorkers returns.
func TestRunWorkersCoverage(t *testing.T) {
	for _, n := range []int{0, 1, 5, 37, 100} {
		var serial vclock.Metrics
		for _, w := range []int{1, 2, 3, 8} {
			seen := make([]atomic.Int32, n)
			ctx := testCtx()
			ctx.Workers = w
			err := runWorkers(ctx, w, n, func(wi, mi int, wctx *Context) error {
				seen[mi].Add(1)
				wctx.Tr.ChargeParallelCPU(time.Microsecond, 1.0)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for mi := range seen {
				if c := seen[mi].Load(); c != 1 {
					t.Fatalf("w=%d n=%d: morsel %d executed %d times", w, n, mi, c)
				}
			}
			if got := ctx.Tr.Snapshot(); w == 1 {
				serial = got
			} else if got != serial {
				t.Fatalf("w=%d n=%d: metrics %+v, want the serial run's %+v", w, n, got, serial)
			}
		}
	}
	for _, w := range []int{2, 3, 8} {
		var inFlight atomic.Int32
		ctx := testCtx()
		ctx.Workers = w
		err := runWorkers(ctx, w, 37, func(wi, mi int, wctx *Context) error {
			inFlight.Add(1)
			defer inFlight.Add(-1)
			if mi == 5 {
				panic("bad morsel")
			}
			return nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) || pe.Value != "bad morsel" {
			t.Fatalf("w=%d: err = %v, want a PanicError carrying the panic value", w, err)
		}
		if n := inFlight.Load(); n != 0 {
			t.Fatalf("w=%d: %d bodies still running after runWorkers returned", w, n)
		}
	}
}

// TestSpawn checks the spawn/join point: meanwhile runs on the caller
// while every fn is in flight (each side waits for the other, so running
// them in sequence would deadlock), and the result is the first error in
// index order, a recovered panic included.
func TestSpawn(t *testing.T) {
	const n = 4
	started := make(chan int, n)
	release := make(chan struct{})
	errAt := func(i int) error { return fmt.Errorf("fn %d failed", i) }
	err := spawn(n, func(i int) error {
		started <- i
		<-release
		if i == 1 || i == 3 {
			return errAt(i)
		}
		return nil
	}, func() {
		for i := 0; i < n; i++ {
			<-started
		}
		close(release)
	})
	if err == nil || err.Error() != errAt(1).Error() {
		t.Fatalf("err = %v, want fn 1's error", err)
	}

	err = spawn(n, func(i int) error {
		if i == 0 {
			panic("boom")
		}
		return errAt(i)
	}, nil)
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Value != "boom" || len(pe.Stack) == 0 {
		t.Fatalf("err = %v, want fn 0's recovered panic", err)
	}
}

// TestPartitionedBuildPanic: a panic on a hash-join builder goroutine
// (here a partition without its store) comes back as the build's error
// instead of ending the process, after the coordinator's charges ran.
func TestPartitionedBuildPanic(t *testing.T) {
	b := vec.NewBatch([]value.Kind{value.KindInt})
	for k := int64(0); k < 16; k++ {
		b.AppendRow(value.Row{value.NewInt(k)})
	}
	c := &batchHashJoin{ctx: testCtx(), parts: []*joinPart{{}, {}},
		j: &plan.Join{Keys: []plan.JoinKey{{Kind: value.KindInt}}}}
	err := c.buildPartitionedBatch(&SlotBatch{B: b, Slots: []int{0}}, b.Cols, []int{0})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a PanicError from the builder", err)
	}
	if c.bytes == 0 {
		t.Fatal("coordinator charged nothing")
	}
}

// TestSchedulableWorkers checks the pool right-sizing: never more
// workers than morsels, never more than schedulable CPUs, floor 1.
func TestSchedulableWorkers(t *testing.T) {
	SetSchedulableCPUs(4)
	defer SetSchedulableCPUs(0)
	ctx := testCtx()
	cases := []struct{ workers, morsels, want int }{
		{8, 100, 4}, // CPU clamp
		{8, 3, 3},   // morsel clamp
		{2, 100, 2}, // budget clamp
		{0, 10, 1},  // floor
		{8, 0, 1},   // floor
	}
	for _, c := range cases {
		ctx.Workers = c.workers
		if got := schedulableWorkers(ctx, c.morsels); got != c.want {
			t.Errorf("schedulableWorkers(workers=%d, morsels=%d) = %d, want %d",
				c.workers, c.morsels, got, c.want)
		}
	}
}

// TestPartitionOf checks range and determinism of the build partition
// a key hash routes to, and that sequential keys spread rather than
// stripe.
func TestPartitionOf(t *testing.T) {
	const parts = 8
	v := vec.NewVec(value.KindInt)
	kinds := []value.Kind{value.KindInt}
	counts := make([]int, parts)
	for k := int64(0); k < 8000; k++ {
		v.Append(value.NewInt(k))
		h := keyHash([]*vec.Vec{v}, kinds, int(k))
		if h2 := keyHash([]*vec.Vec{v}, kinds, int(k)); h2 != h {
			t.Fatalf("keyHash(%d) nondeterministic: %d then %d", k, h, h2)
		}
		counts[h%parts]++
	}
	for p, c := range counts {
		// Perfect balance is 1000 per partition; a splitmix-scrambled
		// assignment stays well within 2x of it.
		if c < 500 || c > 2000 {
			t.Errorf("partition %d got %d of 8000 sequential keys; want near-uniform", p, c)
		}
	}
}

// TestRowWidthMatchesMaterialized pins the invariant the morsel sort's
// memory accounting rests on: the width SlotBatch.rowWidth reports for
// a live row equals Row.Width of the composite row AppendRows
// materializes for it — every kind, NULLs, empty and long strings, a
// hidden uid vector (slot -1), slots no vector populates, and a
// selection vector.
func TestRowWidthMatchesMaterialized(t *testing.T) {
	kinds := []value.Kind{value.KindInt, value.KindFloat, value.KindString, value.KindBool, value.KindDate, value.KindInt}
	slots := []int{0, 2, 3, 5, 6, -1}
	const totalSlots = 8
	b := vec.NewBatch(kinds)
	long := strings.Repeat("x", 1000)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 64; i++ {
		r := value.Row{
			value.NewInt(rng.Int63()),
			value.NewFloat(rng.Float64()),
			value.NewString([]string{"", "ab", long}[i%3]),
			value.NewBool(i%2 == 0),
			value.NewDate(int64(i)),
			value.NewInt(int64(i)), // uid
		}
		for c := range r[:5] {
			if rng.Intn(4) == 0 {
				r[c] = value.Null
			}
		}
		b.AppendRow(r)
	}
	for _, sel := range [][]int{nil, {0, 3, 4, 17, 40, 63}} {
		b.Sel = sel
		sb := &SlotBatch{B: b, Slots: slots, Width: totalSlots}
		rows := sb.AppendRows(nil)
		if len(rows) != b.Len() {
			t.Fatalf("AppendRows gave %d rows for %d live", len(rows), b.Len())
		}
		for i, r := range rows {
			if got, want := sb.rowWidth(i), r.Width(); got != want {
				t.Fatalf("sel=%v row %d (%v): rowWidth %d, Row.Width %d", sel, i, r, got, want)
			}
		}
	}
}

// TestTopNRunMatchesStableSort checks the per-morsel bounded heap
// against the ground truth it replaces: the first n rows of
// sort.SliceStable under the same comparator. Narrow key domains force
// ties at the boundary; the second key is DESC; column 2 is the arrival
// order, so a stability slip shows as a row-for-row divergence.
func TestTopNRunMatchesStableSort(t *testing.T) {
	keys := []plan.SortKey{
		{Expr: &sql.ColRef{Slot: 0, Kind: value.KindInt}},
		{Expr: &sql.ColRef{Slot: 1, Kind: value.KindInt}, Desc: true},
	}
	cmp := compileSortKeys(keys)
	rng := rand.New(rand.NewSource(11))
	for _, size := range []int{1, 2, 50, 1000, 3000} {
		all := make([]value.Row, size)
		for i := range all {
			all[i] = value.Row{value.NewInt(rng.Int63n(6)), value.NewInt(rng.Int63n(3)), value.NewInt(int64(i))}
		}
		want := append([]value.Row(nil), all...)
		sort.SliceStable(want, func(i, j int) bool { return cmp(want[i], want[j]) < 0 })
		for _, n := range []int{1, 7, size - 1, size, size + 5} {
			if n < 1 {
				continue
			}
			h := &topNRun{cmp: cmp, n: int64(n)}
			scratch := make(value.Row, 3)
			for _, r := range all {
				copy(scratch, r)
				h.offer(scratch)
				scratch[0], scratch[1], scratch[2] = value.Null, value.Null, value.Null // offer must have copied
			}
			got := h.sorted()
			wantN := want
			if n < len(want) {
				wantN = want[:n]
			}
			if len(got) != len(wantN) {
				t.Fatalf("size=%d n=%d: kept %d rows, want %d", size, n, len(got), len(wantN))
			}
			for i := range got {
				if got[i][2].Int() != wantN[i][2].Int() {
					t.Fatalf("size=%d n=%d: row %d = %v, want %v", size, n, i, got[i], wantN[i])
				}
			}
		}
	}
}
