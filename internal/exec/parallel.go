// Morsel-driven parallel execution. Columnstore scans are split into
// rowgroup morsels (plus one delta-store morsel) pulled by a pool of
// worker goroutines from an atomic dispatch counter — the work-stealing
// scheme of Leis et al.'s "Morsel-Driven Parallelism" (SIGMOD 2014),
// which is also how SQL Server parallelizes the columnstore scans the
// paper's DOP experiments measure.
//
// Parallel operators are bit-compatible with their serial counterparts
// in both results and virtual-clock metrics:
//
//   - Morsels are whole rowgroups, so the batch boundaries — and
//     therefore the multiset of per-batch vclock charges — are
//     identical to a serial scan. Charges land on per-worker Tracker
//     forks and are summed back into the query tracker at the gather
//     point; duration sums are int64 additions, so worker interleaving
//     cannot change them.
//   - Output slots are indexed by morsel, and the delta morsel is
//     ordered last, so gathered rows appear in exactly the serial scan
//     order.
//   - Partial aggregates are per-morsel (not per-worker) and merge in
//     morsel-index order — a fold structure fixed by the plan, not by
//     worker scheduling. Parallel-marked aggregations take this path at
//     every worker count, including Workers=1, so order-sensitive
//     merges (float SUM/AVG) produce the same bits at any parallelism.
//     DISTINCT aggregates collect deduplicated value sets that merge by
//     set union and are folded in encoded-key order at finalization
//     (see aggState.finalDistinct) — deterministic for every aggregate
//     function. The only data-state condition that still forces a scan
//     serial is a pending delete buffer (a destructive anti-semi
//     multiset consumed in physical scan order, which cannot be
//     partitioned).
//   - The gather merge itself is uncharged: the virtual cost of
//     exchanges is already part of the DOP simulation
//     (ParallelStartup + ChargeParallelCPU's exchange overhead).
//
// The plan's DOP stays a virtual-clock parameter; Context.Workers
// controls real goroutines. Varying Workers changes wall-clock time
// only, never the reported Metrics.
package exec

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"hybriddb/internal/colstore"
	"hybriddb/internal/metrics"
	"hybriddb/internal/plan"
)

// Process-wide parallel-execution counters.
var (
	mMorselsDispatched = metrics.NewCounter("hybriddb_exec_morsels_dispatched_total", "scan morsels dispatched to parallel workers")
	mParallelWorkers   = metrics.NewCounter("hybriddb_exec_parallel_workers_total", "worker goroutines launched for morsel-driven operators")
	mMorselChunks      = metrics.NewCounter("hybriddb_exec_morsel_chunks_claimed_total", "contiguous morsel chunks claimed by parallel workers")
	mBuildPartitions   = metrics.NewCounter("hybriddb_exec_build_partitions_total", "hash-join build partitions built concurrently")
)

// maxMorselChunk caps one scheduler claim: big enough to amortize the
// claim CAS over contiguous rowgroups, small enough that the tail of a
// scan still load-balances across workers.
const maxMorselChunk = 8

// schedulableCPUsOverride, when > 0, replaces runtime CPU detection.
var schedulableCPUsOverride atomic.Int32

// SchedulableCPUs returns the number of CPUs morsel workers can
// actually occupy: GOMAXPROCS clamped to the physical core count —
// raising GOMAXPROCS above NumCPU buys scheduler time-slicing, not
// parallelism, and time-sliced workers only add fork/gather overhead.
func SchedulableCPUs() int {
	if n := schedulableCPUsOverride.Load(); n > 0 {
		return int(n)
	}
	p := runtime.GOMAXPROCS(0)
	if c := runtime.NumCPU(); c < p {
		p = c
	}
	if p < 1 {
		p = 1
	}
	return p
}

// SetSchedulableCPUs overrides the scheduler's CPU budget; 0 restores
// runtime detection. Test-only: single-core CI machines use it to
// force the worker pool, fork/merge, and gather paths to really run.
func SetSchedulableCPUs(n int) { schedulableCPUsOverride.Store(int32(n)) }

// schedulableWorkers right-sizes a morsel-driven operator's pool: never
// more goroutines than morsels (idle workers still pay fork/merge) and
// never more than schedulable CPUs (extra workers time-slice one core
// while the gather pays real copy overhead). This is what makes
// Workers > 1 never slower than serial on any machine: when only one
// CPU is schedulable, every operator degrades to the inline serial
// path with zero pool overhead. The hash join sizes its build
// partitions here too, with no morsel bound.
func schedulableWorkers(ctx *Context, nMorsels int) int {
	return max(1, min(ctx.Workers, SchedulableCPUs(), nMorsels))
}

// csiMorsels splits an index scan into morsels: one per compressed
// rowgroup, plus one for the delta store (kept last so gathered output
// preserves the serial scan order).
func csiMorsels(idx *colstore.Index) []colstore.ScanPartition {
	n := idx.Groups()
	ms := make([]colstore.ScanPartition, 0, n+1)
	for g := 0; g < n; g++ {
		ms = append(ms, colstore.ScanPartition{GroupLo: g, GroupHi: g + 1})
	}
	if idx.DeltaRows() > 0 {
		ms = append(ms, colstore.ScanPartition{GroupLo: n, GroupHi: n, Delta: true})
	}
	return ms
}

// ScanMorsels returns the number of morsels a CSI scan decomposes into
// (0 when the scan has no columnstore to read): the engine's ceiling
// when it sizes a statement's worker budget.
func ScanMorsels(s *plan.Scan) int {
	idx, err := resolveCSI(s)
	if err != nil {
		return 0
	}
	return len(csiMorsels(idx))
}

// morselizableScan reports whether a CSI scan decomposes into morsels
// under the current context, independent of the real worker count.
// Operators whose fold structure must not vary with Workers (the
// morsel-partial aggregation) use this gate so the same morsel plan
// runs inline at Workers=1 and on a worker pool otherwise.
func morselizableScan(ctx *Context, parallel bool, s *plan.Scan) (*colstore.Index, []colstore.ScanPartition, bool) {
	if !parallel || ctx.Grant != 0 {
		return nil, nil, false
	}
	idx, err := resolveCSI(s)
	if err != nil || !idx.Partitionable() {
		return nil, nil, false
	}
	morsels := csiMorsels(idx)
	if len(morsels) < 2 {
		return nil, nil, false
	}
	return idx, morsels, true
}

// parallelizableScan additionally requires a real worker pool: scan
// gathers produce identical output at any worker count, so they only
// bother decomposing (and paying the gather's batch copies) when at
// least two workers can truly run at once.
func parallelizableScan(ctx *Context, parallel bool, s *plan.Scan) (*colstore.Index, []colstore.ScanPartition, bool) {
	idx, morsels, ok := morselizableScan(ctx, parallel, s)
	if !ok || schedulableWorkers(ctx, len(morsels)) < 2 {
		return nil, nil, false
	}
	return idx, morsels, true
}

// PanicError is a panic caught at a goroutine or statement boundary and
// turned into the statement's error: a fault must fail its statement,
// not the process and every other session with it.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("exec: statement panicked: %v", e.Value) }

// spawn is the executor's one spawn/join point: it runs fn(0..n-1) on n
// goroutines and meanwhile (may be nil) on the caller, and returns once
// every goroutine has finished, with the first error in index order. A
// goroutine that panics reports a *PanicError as its error (an
// unrecovered panic there would end the process past every recover on
// the statement's own goroutine).
func spawn(n int, fn func(i int) error, meanwhile func()) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs[i] = &PanicError{Value: r, Stack: debug.Stack()}
				}
			}()
			errs[i] = fn(i)
		}()
	}
	if meanwhile != nil {
		meanwhile()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runWorkers executes body over nMorsels morsels with w goroutines
// claiming chunks of contiguous morsel indexes from a shared atomic
// cursor (guided self-scheduling: a claim takes a share of the
// remaining morsels, decaying to single-morsel stealing near the tail
// so the last rowgroups still balance). Each worker gets a Context with
// its own Tracker fork; this is the only function that forks or merges
// a tracker, and all forks are merged back into ctx.Tr (in worker
// order, though duration sums make the order irrelevant) before it
// returns, error or not. With w <= 1 the morsel plan runs inline on the
// caller's context — no fork, no goroutine, no per-morsel dispatch.
func runWorkers(ctx *Context, w, nMorsels int, body func(wi, mi int, wctx *Context) error) error {
	if w <= 1 {
		mMorselsDispatched.Add(int64(nMorsels))
		for mi := 0; mi < nMorsels; mi++ {
			if err := body(0, mi, ctx); err != nil {
				return err
			}
		}
		return nil
	}
	var next atomic.Int32
	var chunks atomic.Int64
	claim := func() (lo, hi int, ok bool) {
		for {
			cur := next.Load()
			if int(cur) >= nMorsels {
				return 0, 0, false
			}
			chunk := (nMorsels - int(cur)) / (2 * w)
			if chunk < 1 {
				chunk = 1
			} else if chunk > maxMorselChunk {
				chunk = maxMorselChunk
			}
			if next.CompareAndSwap(cur, cur+int32(chunk)) {
				chunks.Add(1)
				return int(cur), int(cur) + chunk, true
			}
		}
	}
	wctxs := make([]*Context, w)
	for wi := range wctxs {
		wctxs[wi] = &Context{Tr: ctx.Tr.Fork(), TotalSlots: ctx.TotalSlots, DOP: ctx.DOP, Workers: 1}
	}
	err := spawn(w, func(wi int) error {
		for {
			lo, hi, ok := claim()
			if !ok {
				return nil
			}
			for mi := lo; mi < hi; mi++ {
				if err := body(wi, mi, wctxs[wi]); err != nil {
					return err
				}
			}
		}
	}, nil)
	for _, wctx := range wctxs {
		ctx.Tr.Merge(wctx.Tr)
	}
	mParallelWorkers.Add(int64(w))
	mMorselsDispatched.Add(int64(nMorsels))
	mMorselChunks.Add(chunks.Load())
	return err
}

// annotate records the parallel-execution attributes on a scan's trace
// node: merged per-morsel stats plus worker fan-out.
func annotate(tn *metrics.TraceNode, morselTNs []*metrics.TraceNode, w int, workerGroups []int64) {
	if tn == nil {
		return
	}
	for _, mt := range morselTNs {
		tn.Absorb(mt)
	}
	// Absorb sums attrs key-wise, which is right for the kernel row
	// counters but turns the per-morsel sel_density ratios into a
	// meaningless sum — recompute it from the summed counters so the
	// attribute is identical to a serial run's.
	if in, ok := tn.Attr("kernel_rows_in"); ok {
		out, _ := tn.Attr("kernel_rows_out")
		tn.SetAttr("sel_density", selDensity(in, out))
	}
	tn.SetAttr("parallel_workers", int64(w))
	tn.SetAttr("morsels", int64(len(morselTNs)))
	for wi, g := range workerGroups {
		tn.SetAttr(fmt.Sprintf("worker%d_rowgroups", wi), g)
	}
}

// runMorsels runs body once per morsel of scan on the worker pool,
// handing it the morsel's batch source, and annotates the scan's trace
// node from the per-morsel nodes. ownNode is set by operators that
// consume the sources directly, so that the scan never becomes a
// cursor: it then gets its own trace child, and the sources own its
// rows, bytes, and time. Otherwise the caller's own node (ctx.Trace) is
// the scan's and only batch counts and rowgroup stats are gathered.
// Each worker keeps one source and re-aims it at every morsel it claims,
// so body must copy out whatever it keeps of a batch before it returns.
func runMorsels(ctx *Context, scan *plan.Scan, morsels []colstore.ScanPartition, ownNode bool,
	body func(mi int, wctx *Context, src *csiBatchSource) error) error {
	w := schedulableWorkers(ctx, len(morsels))
	tn := ctx.Trace
	var morselTNs []*metrics.TraceNode
	if tn != nil {
		if ownNode {
			tn = tn.Child(scan.Describe())
			tn.Loops = 1
		}
		morselTNs = make([]*metrics.TraceNode, len(morsels))
	}
	workerGroups := make([]int64, w)
	srcs := make([]*csiBatchSource, w)
	err := runWorkers(ctx, w, len(morsels), func(wi, mi int, wctx *Context) error {
		if srcs[wi] == nil {
			var err error
			if srcs[wi], err = newCSIBatchSource(wctx, scan); err != nil {
				return err
			}
		}
		src := srcs[wi]
		src.sc.Reaim(&morsels[mi])
		if morselTNs != nil {
			morselTNs[mi] = &metrics.TraceNode{}
			src.tn, src.timed = morselTNs[mi], ownNode
		}
		err := body(mi, wctx, src)
		workerGroups[wi] += int64(src.sc.GroupsScanned)
		return err
	})
	if err != nil {
		return err
	}
	annotate(tn, morselTNs, w, workerGroups)
	return nil
}
