package exec

import (
	"math"

	"hybriddb/internal/colstore"
	"hybriddb/internal/plan"
	"hybriddb/internal/value"
	"hybriddb/internal/vclock"
	"hybriddb/internal/vec"
)

// batchHashJoin is the hash join: build on the outer side, probe with
// the inner, on every pair of plan.Join.Keys. The build side is drained
// into a columnar store (typed vectors, one growable column per build
// slot; row-layout build batches are copied in, see storeBatch) under
// one flat chained hash table: buckets picked by a fixed-seed 64-bit
// hash of the key columns (keyHash), and head/next chains linked after
// the drain, so one key's candidates are visited in build-input order.
// A candidate matches when every key column, compared typed and in
// place on the vectors (keysEqual), is equal. The table is the keyTable
// the hash aggregate groups on.
// Parallel-marked builds shard the store by the same hash into
// per-worker partitions built concurrently (see buildPartitionedBatch).
// Probe batches stream through, emitting columnar output batches when
// the probe side is columnar and composite rows otherwise.
//
// The charge schedule (pinned by the root package's spine golden): the
// probe subtree is constructed before the build drain (grant-aware
// blocking operators below the probe side allocate and release before
// build memory is held), each build row whose Keys[0] is non-NULL
// allocates Width()+32 then charges HashCPU, each probe row charges
// HashCPU before its null check, key comparisons are uncharged, and the
// build memory is freed when the last output has been emitted.
type batchHashJoin struct {
	ctx *Context
	j   *plan.Join

	// Build store, laid out on the first build batch (initStore). parts
	// stays nil when the build side is empty: probes then charge and
	// miss.
	parts      []*joinPart
	storeSlots []int
	conv       *vec.Batch // row-layout build batches copied into store layout

	// The key slots of each side (Left, Right) and the pairs' kinds.
	buildSlots, probeSlots []int
	kinds                  []value.Kind

	bytes int64
	freed bool

	// The serial probe input and its state, or, when the probe is fused,
	// its joined output gathered in morsel order and a nil st.
	probe BatchCursor
	st    *probeState
}

// joinPart is one build-side partition: a columnar row store and the
// keyTable over it, whose key vectors are the store columns holding the
// build keys. Rows are assigned to partitions by key hash, so every
// match for one probe key lives in one partition, and each partition is
// appended by exactly one builder scanning the input in order — the two
// facts that make partitioned output row-for-row identical to a serial
// build at any partition count.
type joinPart struct {
	store []*vec.Vec
	keyTable
}

// fill appends the rows of a build batch that belong to partition pi of
// nParts: every key non-NULL (such a row matches nothing) and the key
// hash pi modulo nParts. keys are the batch's key vectors, src the batch
// vector feeding each store column.
func (pt *joinPart) fill(sb *SlotBatch, keys []*vec.Vec, src []int, pi, nParts int) {
	n := sb.Len()
	for _, v := range pt.store {
		v.Reserve(n)
	}
	for i := 0; i < n; i++ {
		p := sb.B.LiveIndex(i)
		if anyNull(keys, p) || nParts > 1 && int(keyHash(keys, pt.kinds, p)%uint64(nParts)) != pi {
			continue
		}
		for si, vi := range src {
			pt.store[si].AppendFrom(sb.B.Cols[vi], p)
		}
		pt.n++
	}
}

// probeState is the per-prober scratch: serial probing has one, each
// fused morsel worker gets its own.
type probeState struct {
	// rowKeys holds a row-layout probe batch's keys, one vector per pair
	// in the pair's kind, so both layouts hash and compare alike.
	rowKeys []*vec.Vec

	// Columnar-output plumbing, resolved against the first columnar
	// probe batch (slot mappings are stable across a producer's batches).
	colInit  bool
	colOut   bool
	probeSrc []int // probe vector index per probe-side output column
	outSlots []int
	kinds    []value.Kind
	outB     *vec.Batch

	// owned marks fused-probe states: emitted batches must survive past
	// the next probeOne call, so output vectors are not reused.
	owned bool

	// The probe batch's joined pairs in emission order, reused batch to
	// batch: build partition (only with several), stored row and probe
	// batch position. Columnar output is gathered from them (gather).
	mParts, mRows, mProbe []int32
}

func newBatchHashJoin(ctx *Context, j *plan.Join) (BatchCursor, error) {
	c := &batchHashJoin{ctx: ctx, j: j}
	for _, jk := range j.Keys {
		c.buildSlots = append(c.buildSlots, jk.Left)
		c.probeSlots = append(c.probeSlots, jk.Right)
		c.kinds = append(c.kinds, jk.Kind)
	}
	build, err := buildInput(ctx, j, 0)
	if err != nil {
		return nil, err
	}

	// Probe side next, before the build drain. The fused morsel probe
	// (Parallel-marked join over a parallelizable CSI probe scan) skips
	// cursor construction entirely: per-morsel sources feed probeOne
	// directly after the build.
	var fusedScan *plan.Scan
	var fusedMorsels []colstore.ScanPartition
	if scan, ok := j.Inner.(*plan.Scan); ok && scan.Access == plan.AccessCSIScan && j.Parallel {
		if _, ms, pok := parallelizableScan(ctx, scan.Parallel, scan); pok {
			fusedScan, fusedMorsels = scan, ms
		}
	}
	if fusedScan == nil {
		if c.probe, err = buildInput(ctx, j, 1); err != nil {
			return nil, err
		}
		c.st = &probeState{}
	}

	var src []int // build batch vector per store column
	for {
		sb, ok := build.NextBatch()
		if !ok {
			break
		}
		if c.parts == nil {
			src = c.initStore(sb)
		}
		if c.conv != nil {
			sb = c.storeBatch(sb)
		}
		keys := ownKeys(sb, c.buildSlots) // a store-layout batch carries every key
		if len(c.parts) > 1 {
			if err := c.buildPartitionedBatch(sb, keys, src); err != nil {
				return nil, err
			}
			continue
		}
		c.parts[0].fill(sb, keys, src, 0, 1)
		c.chargeBuild(sb, keys[0])
	}
	for _, pt := range c.parts {
		pt.link()
	}

	if fusedScan != nil {
		if err := c.fusedProbe(fusedScan, fusedMorsels); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// initStore lays the build store out from the first build batch and
// returns the batch vector feeding each store column. A columnar batch
// that carries every build key keeps its own vectors. Otherwise the
// store holds every slot the build subtree's scans fill, in their
// columns' kinds, and each batch is copied into that layout first.
func (c *batchHashJoin) initStore(sb *SlotBatch) (src []int) {
	var kinds []value.Kind
	if ownKeys(sb, c.buildSlots) != nil {
		for vi, slot := range sb.Slots {
			if slot >= 0 {
				kinds = append(kinds, sb.B.Cols[vi].Kind)
				c.storeSlots = append(c.storeSlots, slot)
				src = append(src, vi)
			}
		}
	} else {
		plan.Walk(c.j.Outer, func(n plan.Node) {
			if s, ok := n.(*plan.Scan); ok {
				for ord, col := range s.Table.Schema.Columns {
					src = append(src, len(src))
					kinds = append(kinds, col.Kind)
					c.storeSlots = append(c.storeSlots, s.SlotBase+ord)
				}
			}
		})
		// Unsized vectors: they grow to the largest batch, so a small
		// build stays small.
		c.conv = &vec.Batch{}
		for _, k := range kinds {
			c.conv.Cols = append(c.conv.Cols, &vec.Vec{Kind: k})
		}
	}
	nParts := 1
	if c.j.Parallel {
		// The real worker budget: a row's partition is a function of its
		// key, and the coordinator issues every charge in build-input
		// order, so any count is bit-compatible with serial.
		nParts = schedulableWorkers(c.ctx, math.MaxInt)
	}
	for pi := 0; pi < nParts; pi++ {
		pt := &joinPart{keyTable: keyTable{kinds: c.kinds}} // unsized: fill reserves each batch's rows
		for _, k := range kinds {
			pt.store = append(pt.store, &vec.Vec{Kind: k})
		}
		for _, slot := range c.buildSlots {
			pt.keys = append(pt.keys, pt.store[slotVec(c.storeSlots, slot)])
		}
		c.parts = append(c.parts, pt)
	}
	if nParts > 1 {
		mBuildPartitions.Add(int64(nParts))
		if c.ctx.Trace != nil {
			c.ctx.Trace.SetAttr("build_partitions", int64(nParts))
		}
	}
	return src
}

// storeBatch copies a build batch's rows into the store's slot layout
// (c.conv, reused batch to batch). The copy carries every non-NULL
// value the rows do, so the width charged per row is unchanged.
func (c *batchHashJoin) storeBatch(sb *SlotBatch) *SlotBatch {
	c.conv.Reset()
	rows := sb.materializeRows(c.ctx.TotalSlots)
	for _, row := range rows {
		for si, slot := range c.storeSlots {
			c.conv.Cols[si].Append(row[slot])
		}
	}
	c.conv.SetLen(len(rows))
	return &SlotBatch{B: c.conv, Slots: c.storeSlots}
}

// chargeBuild issues one build batch's charges: for the rows whose
// first key is non-NULL, one Alloc of their composite-row widths + 32
// each (the build only allocates, so MemPeak is what per-row Allocs
// would leave) and HashCPU per row.
func (c *batchHashJoin) chargeBuild(sb *SlotBatch, key0 *vec.Vec) {
	var rows, w int64
	for i := 0; i < sb.Len(); i++ {
		if !key0.IsNull(sb.B.LiveIndex(i)) {
			rows++
			w += int64(sb.rowWidth(i, c.ctx.TotalSlots) + 32)
		}
	}
	c.ctx.Tr.Alloc(w)
	c.bytes += w
	c.ctx.Tr.ChargeParallelRows(rows, vclock.CPU(1, c.ctx.Tr.Model.HashCPU), 1.0)
}

// buildPartitionedBatch routes one borrowed build batch into the
// partitions SPMD-style: every partition's builder goroutine scans the
// whole batch and appends only its own rows, so there are no routing
// queues and per-partition order is build-input order. The coordinator
// concurrently issues the serial charge multiset (chargeBuild) on the
// main tracker while the builders touch only real memory; Metrics and
// MemPeak are therefore bit-identical to a single-partition build.
// spawn's per-batch barrier keeps the borrowed batch alive until every
// builder is done with it.
func (c *batchHashJoin) buildPartitionedBatch(sb *SlotBatch, keys []*vec.Vec, src []int) error {
	P := len(c.parts)
	return spawn(P, func(pi int) error {
		c.parts[pi].fill(sb, keys, src, pi, P)
		return nil
	}, func() { c.chargeBuild(sb, keys[0]) })
}

func (c *batchHashJoin) NextBatch() (*SlotBatch, bool) {
	for {
		sb, ok := c.probe.NextBatch()
		if !ok {
			c.release()
			return nil, false
		}
		if c.st == nil {
			return sb, true
		}
		if out := c.probeOne(c.ctx.Tr, sb, c.st); out != nil {
			return out, true
		}
	}
}

// release frees the build-side memory once, when the last output has
// been emitted.
func (c *batchHashJoin) release() {
	if c.freed {
		return
	}
	c.freed = true
	c.ctx.Tr.Free(c.bytes)
	c.bytes = 0
}

// probeOne probes one input batch against the build table, returning an
// output batch of joined rows, or nil when no probe row survived.
func (c *batchHashJoin) probeOne(tr *vclock.Tracker, sb *SlotBatch, st *probeState) *SlotBatch {
	m := tr.Model
	if sb.Rows == nil && c.parts != nil && !st.colInit {
		st.colInit = true
		st.colOut = true
		for _, v := range c.parts[0].store {
			st.kinds = append(st.kinds, v.Kind)
		}
		st.outSlots = append(st.outSlots, c.storeSlots...)
		for vi, slot := range sb.Slots {
			if slot < 0 {
				continue
			}
			if slotVec(c.storeSlots, slot) >= 0 {
				st.colOut = false
				break
			}
			st.probeSrc = append(st.probeSrc, vi)
			st.kinds = append(st.kinds, sb.B.Cols[vi].Kind)
			st.outSlots = append(st.outSlots, slot)
		}
	}
	if sb.Rows == nil && c.parts != nil && !st.colOut {
		// A probe slot shadows a build slot (overlap): only the row path
		// reproduces the overlay semantics exactly.
		sb = &SlotBatch{Rows: sb.materializeRows(c.ctx.TotalSlots)}
	}
	// A batch that lacks a key column is probed as composite rows too.
	sb, keys := batchKeys(sb, c.probeSlots, c.kinds, &st.rowKeys, c.ctx.TotalSlots)
	colOut := sb.Rows == nil

	st.mParts, st.mRows, st.mProbe = st.mParts[:0], st.mRows[:0], st.mProbe[:0]
	var rows []value.Row
	n := sb.Len()
	tr.ChargeParallelRows(int64(n), vclock.CPU(1, m.HashCPU), 1.0)
	for i := 0; i < n; i++ {
		p := i
		if sb.Rows == nil {
			p = sb.B.LiveIndex(i)
		}
		if c.parts == nil || anyNull(keys, p) {
			continue
		}
		h := keyHash(keys, c.kinds, p)
		pi := 0
		if len(c.parts) > 1 {
			pi = int(h % uint64(len(c.parts)))
		}
		pt := c.parts[pi]
		for idx := pt.head[h>>pt.shift]; idx >= 0; idx = pt.next[idx] {
			if !keysEqual(pt.keys, int(idx), keys, p, pt.kinds) {
				continue
			}
			if colOut {
				if len(c.parts) > 1 {
					st.mParts = append(st.mParts, int32(pi))
				}
				st.mRows, st.mProbe = append(st.mRows, idx), append(st.mProbe, int32(p))
				continue
			}
			out := make(value.Row, c.ctx.TotalSlots)
			for si, slot := range c.storeSlots {
				out[slot] = pt.store[si].Value(int(idx))
			}
			for s2, v := range sb.Rows[i] {
				if !v.IsNull() {
					out[s2] = v
				}
			}
			rows = append(rows, out)
		}
	}
	if colOut {
		if len(st.mRows) == 0 {
			return nil
		}
		return &SlotBatch{B: c.gather(sb.B, st), Slots: st.outSlots}
	}
	if len(rows) == 0 {
		return nil
	}
	return &SlotBatch{Rows: rows}
}

// gather builds the columnar output batch of the recorded matches
// column by column, into vectors sized to the match count when the
// batch is owned (fused probe) or the first, else into st.outB's, grown
// at most once.
func (c *batchHashJoin) gather(probe *vec.Batch, st *probeState) *vec.Batch {
	n := len(st.mRows)
	if st.outB == nil || st.owned {
		st.outB = &vec.Batch{Cols: make([]*vec.Vec, len(st.kinds))}
		for i, k := range st.kinds {
			st.outB.Cols[i] = &vec.Vec{Kind: k}
		}
	}
	out := st.outB
	out.Reset()
	nStore := len(c.storeSlots)
	for si := 0; si < nStore; si++ {
		v := out.Cols[si]
		v.Reserve(n)
		src := c.parts[0].store[si]
		for k, r := range st.mRows {
			if len(c.parts) > 1 {
				src = c.parts[st.mParts[k]].store[si]
			}
			v.AppendFrom(src, int(r))
		}
	}
	for k, vi := range st.probeSrc {
		v := out.Cols[nStore+k]
		v.Reserve(n)
		for _, p := range st.mProbe {
			v.AppendFrom(probe.Cols[vi], int(p))
		}
	}
	out.SetLen(n)
	return out
}

// fusedProbe runs the probe scan morsel-driven, probing each morsel's
// batches against the (read-only) build table on the worker and
// gathering owned output batches in morsel order — the serial emission
// order. The probe charges land on worker forks; sums are unchanged, so
// Metrics match a serial probe bit for bit.
func (c *batchHashJoin) fusedProbe(scan *plan.Scan, morsels []colstore.ScanPartition) error {
	outs := make([][]*SlotBatch, len(morsels))
	err := runMorsels(c.ctx, scan, morsels, true, func(mi int, wctx *Context, src *csiBatchSource) error {
		st := &probeState{owned: true}
		for {
			b, ok := src.nextCharged()
			if !ok {
				return nil
			}
			sb := SlotBatch{B: b, Slots: src.slots}
			if out := c.probeOne(wctx.Tr, &sb, st); out != nil {
				outs[mi] = append(outs[mi], out)
			}
		}
	})
	if err != nil {
		return err
	}
	var all []*SlotBatch
	for _, o := range outs {
		all = append(all, o...)
	}
	c.probe = &gatherBatchCursor{batches: all}
	return nil
}
