package exec

import (
	"hybriddb/internal/colstore"
	"hybriddb/internal/plan"
	"hybriddb/internal/value"
	"hybriddb/internal/vclock"
	"hybriddb/internal/vec"
)

// batchHashJoin is the hash join: build on the outer side, probe with
// the inner. The build side is drained into a columnar store (typed
// vectors, one growable column per populated slot) keyed by an int64
// map when both key columns are the same integer-backed kind
// (plan.Join.KeyKind) — value.EncodeKey carries no kind tag for
// int-payload kinds, so the raw payload is the same key the
// string-keyed table would hash.
// Parallel-marked int-keyed builds shard that store by key hash into
// per-worker partitions built concurrently (see buildPartitionedBatch);
// serial and string-keyed builds use exactly one partition. Probe
// batches stream through, emitting columnar output batches when both
// sides are columnar and composite rows otherwise.
//
// The charge schedule (pinned by the root package's spine golden): the
// probe subtree is constructed before the build drain (grant-aware
// blocking operators below the probe side allocate and release before
// build memory is held), each non-null build row allocates Width()+32
// then charges HashCPU, each probe row charges HashCPU before its null
// check, residual conjuncts evaluate uncharged, and the build memory is
// freed when the last output has been emitted.
type batchHashJoin struct {
	ctx      *Context
	j        *plan.Join
	residual []func(value.Row) bool

	// Build store: columnar partitions (parts) or composite rows
	// (storeRows), decided on the first build batch.
	parts      []*joinPart
	storeSlots []int
	storeRows  []value.Row

	// htable is the string-keyed hash table (always single-partition);
	// integer-backed keys live in the per-partition itable maps. All
	// tables are nil when the build side is empty (probes then charge
	// and miss).
	htable map[string][]int32

	bytes int64
	freed bool

	probe BatchCursor // serial probe input (nil when fused)
	st    *probeState

	fused    bool
	gathered []*SlotBatch
	gpos     int
}

// joinPart is one build-side partition: a columnar row store plus the
// int-keyed hash table over it. Rows are assigned to partitions by key
// hash, so every match for one probe key lives in one partition, and
// each partition is appended by exactly one builder scanning the input
// in order — the two facts that make partitioned output row-for-row
// identical to a serial build at any partition count.
type joinPart struct {
	store  []*vec.Vec
	itable map[int64][]int32
	n      int
}

func newJoinPart(kinds []value.Kind, intKey bool) *joinPart {
	pt := &joinPart{}
	for _, k := range kinds {
		pt.store = append(pt.store, vec.NewVec(k))
	}
	if intKey {
		pt.itable = make(map[int64][]int32)
	}
	return pt
}

// partitionOf assigns an int-backed join key to a build partition with
// a splitmix64-style finalizer. The raw payload doubles as the hash-
// table key, so the partition function must scramble it first:
// sequential surrogate keys would otherwise stripe into few partitions.
func partitionOf(k int64, parts int) int {
	x := uint64(k)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(parts))
}

// buildPartitions picks the build fan-out for a Parallel-marked join:
// the real worker budget clamped to schedulable CPUs. The count only
// affects wall-clock time — partition assignment is a pure function of
// the key and every virtual charge is issued by the coordinator in
// build-input order — so any value is bit-compatible with serial.
func buildPartitions(ctx *Context) int {
	w := ctx.Workers
	if p := SchedulableCPUs(); w > p {
		w = p
	}
	if w < 1 {
		w = 1
	}
	return w
}

// encodeKey appends a non-NULL join key to buf for the string-keyed
// table, in the join's key kind: a BIGINT = DOUBLE join compares in
// DOUBLE, so the other numeric kind is widened before encoding.
func (c *batchHashJoin) encodeKey(buf []byte, v value.Value) []byte {
	if c.j.KeyKind == value.KindFloat && v.Kind() != value.KindFloat {
		v = value.NewFloat(v.Float())
	}
	return value.EncodeKey(buf, v)
}

// intKeyed reports whether the columnar build keyed by int64 payload.
func (c *batchHashJoin) intKeyed() bool {
	return len(c.parts) > 0 && c.parts[0].itable != nil
}

// lookupInt returns the matches for an int-backed probe key and the
// partition storing them.
func (c *batchHashJoin) lookupInt(k int64) ([]int32, *joinPart) {
	if len(c.parts) == 0 {
		return nil, nil
	}
	pt := c.parts[0]
	if len(c.parts) > 1 {
		pt = c.parts[partitionOf(k, len(c.parts))]
	}
	return pt.itable[k], pt
}

func (c *batchHashJoin) part0() *joinPart {
	if len(c.parts) == 0 {
		return nil
	}
	return c.parts[0]
}

// probeState is the per-prober scratch: serial probing has one, each
// fused morsel worker gets its own.
type probeState struct {
	scratch value.Row
	buf     []byte

	keyRes bool
	keyVi  int // probe-batch vector carrying the join key, -1 if absent

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
}

func newBatchHashJoin(ctx *Context, j *plan.Join) (BatchCursor, error) {
	c := &batchHashJoin{ctx: ctx, j: j, residual: compilePreds(j.Residual)}
	build, err := buildDrained(ctx, j.Outer)
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
		if c.probe, err = BuildBatch(ctx, j.Inner); err != nil {
			return nil, err
		}
		c.st = c.newProbeState(false)
	}

	m := ctx.Tr.Model
	var buf []byte
	first := true
	colStore := false
	keyVi := -1
	var storeSrc []int // build vector index per store column
	for {
		sb, ok := build.NextBatch()
		if !ok {
			break
		}
		if first {
			first = false
			if sb.Rows == nil {
				keyVi = slotVec(sb.Slots, j.LeftSlot)
				colStore = keyVi >= 0
			}
			if colStore {
				var kinds []value.Kind
				for vi, slot := range sb.Slots {
					if slot < 0 {
						continue
					}
					kinds = append(kinds, sb.B.Cols[vi].Kind)
					c.storeSlots = append(c.storeSlots, slot)
					storeSrc = append(storeSrc, vi)
				}
				nParts := 1
				intKey := intBacked(j.KeyKind)
				if intKey && j.Parallel {
					nParts = buildPartitions(ctx)
				}
				for pi := 0; pi < nParts; pi++ {
					c.parts = append(c.parts, newJoinPart(kinds, intKey))
				}
				if !intKey {
					c.htable = make(map[string][]int32)
				}
				if nParts > 1 {
					mBuildPartitions.Add(int64(nParts))
					if ctx.Trace != nil {
						ctx.Trace.SetAttr("build_partitions", int64(nParts))
					}
				}
			} else {
				c.htable = make(map[string][]int32)
			}
		}
		if colStore {
			if len(c.parts) > 1 {
				if err := c.buildPartitionedBatch(sb, keyVi, storeSrc); err != nil {
					return nil, err
				}
				continue
			}
			pt := c.parts[0]
			kv := sb.B.Cols[keyVi]
			n := sb.Len()
			for i := 0; i < n; i++ {
				p := sb.B.LiveIndex(i)
				if kv.IsNull(p) {
					continue
				}
				if pt.itable != nil {
					pt.itable[kv.I[p]] = append(pt.itable[kv.I[p]], int32(pt.n))
				} else {
					buf = c.encodeKey(buf[:0], kv.Value(p))
					c.htable[string(buf)] = append(c.htable[string(buf)], int32(pt.n))
				}
				for si, vi := range storeSrc {
					pt.store[si].AppendFrom(sb.B.Cols[vi], p)
				}
				pt.n++
				w := int64(sb.rowWidth(i, ctx.TotalSlots) + 32)
				ctx.Tr.Alloc(w)
				c.bytes += w
				ctx.Tr.ChargeParallelCPU(vclock.CPU(1, m.HashCPU), 1.0)
			}
			continue
		}
		for _, row := range sb.materializeRows(ctx.TotalSlots) {
			k := row[j.LeftSlot]
			if k.IsNull() {
				continue
			}
			buf = c.encodeKey(buf[:0], k)
			c.htable[string(buf)] = append(c.htable[string(buf)], int32(len(c.storeRows)))
			c.storeRows = append(c.storeRows, row)
			w := int64(row.Width() + 32)
			ctx.Tr.Alloc(w)
			c.bytes += w
			ctx.Tr.ChargeParallelCPU(vclock.CPU(1, m.HashCPU), 1.0)
		}
	}

	if fusedScan != nil {
		if err := c.fusedProbe(fusedScan, fusedMorsels); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// buildPartitionedBatch routes one borrowed build batch into the
// partitions SPMD-style: every partition's builder goroutine scans the
// whole batch and appends only its own rows, so there are no routing
// queues and per-partition order is build-input order. The coordinator
// concurrently issues the serial charge multiset — Alloc then HashCPU
// per non-null row, in input order on the main tracker — while the
// builders touch only real memory; Metrics and MemPeak are therefore
// bit-identical to a single-partition build. spawn's per-batch barrier
// keeps the borrowed batch alive until every builder is done with it.
func (c *batchHashJoin) buildPartitionedBatch(sb *SlotBatch, keyVi int, storeSrc []int) error {
	kv := sb.B.Cols[keyVi]
	n := sb.Len()
	P := len(c.parts)
	return spawn(P, func(pi int) error {
		pt := c.parts[pi]
		for i := 0; i < n; i++ {
			p := sb.B.LiveIndex(i)
			if kv.IsNull(p) {
				continue
			}
			k := kv.I[p]
			if partitionOf(k, P) != pi {
				continue
			}
			pt.itable[k] = append(pt.itable[k], int32(pt.n))
			for si, vi := range storeSrc {
				pt.store[si].AppendFrom(sb.B.Cols[vi], p)
			}
			pt.n++
		}
		return nil
	}, func() {
		m := c.ctx.Tr.Model
		for i := 0; i < n; i++ {
			p := sb.B.LiveIndex(i)
			if kv.IsNull(p) {
				continue
			}
			w := int64(sb.rowWidth(i, c.ctx.TotalSlots) + 32)
			c.ctx.Tr.Alloc(w)
			c.bytes += w
			c.ctx.Tr.ChargeParallelCPU(vclock.CPU(1, m.HashCPU), 1.0)
		}
	})
}

func (c *batchHashJoin) newProbeState(owned bool) *probeState {
	return &probeState{scratch: make(value.Row, c.ctx.TotalSlots), keyVi: -1, owned: owned}
}

func (c *batchHashJoin) NextBatch() (*SlotBatch, bool) {
	if c.fused {
		if c.gpos < len(c.gathered) {
			sb := c.gathered[c.gpos]
			c.gpos++
			return sb, true
		}
		c.release()
		return nil, false
	}
	for {
		sb, ok := c.probe.NextBatch()
		if !ok {
			c.release()
			return nil, false
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
	if sb.Rows == nil && !st.keyRes {
		st.keyRes = true
		st.keyVi = slotVec(sb.Slots, c.j.RightSlot)
	}
	if sb.Rows == nil && st.keyVi < 0 {
		// Key column not decoded in this batch shape: fall back to
		// composite rows for the whole batch.
		sb = &SlotBatch{Rows: sb.materializeRows(c.ctx.TotalSlots)}
	}
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
				// A probe slot shadows a build slot (overlap): only the
				// row path reproduces the overlay semantics exactly.
				st.colOut = false
				break
			}
			st.probeSrc = append(st.probeSrc, vi)
			st.kinds = append(st.kinds, sb.B.Cols[vi].Kind)
			st.outSlots = append(st.outSlots, slot)
		}
		if !st.colOut {
			st.probeSrc, st.outSlots, st.kinds = nil, nil, nil
		}
	}
	colOut := sb.Rows == nil && c.parts != nil && st.colOut

	var outB *vec.Batch
	outCount := 0
	if colOut {
		if st.outB == nil || st.owned {
			st.outB = vec.NewBatch(st.kinds)
		} else {
			st.outB.Reset()
		}
		outB = st.outB
	}
	var rows []value.Row
	var nStoreCols int
	if c.parts != nil {
		nStoreCols = len(c.parts[0].store)
	}
	n := sb.Len()
	for i := 0; i < n; i++ {
		tr.ChargeParallelCPU(vclock.CPU(1, m.HashCPU), 1.0)
		var matches []int32
		pt := c.part0()
		var probeRow value.Row
		var p int
		if sb.Rows != nil {
			probeRow = sb.Rows[i]
			k := probeRow[c.j.RightSlot]
			if k.IsNull() {
				continue
			}
			if c.intKeyed() {
				matches, pt = c.lookupInt(k.Int())
			} else {
				st.buf = c.encodeKey(st.buf[:0], k)
				matches = c.htable[string(st.buf)]
			}
		} else {
			p = sb.B.LiveIndex(i)
			kv := sb.B.Cols[st.keyVi]
			if kv.IsNull(p) {
				continue
			}
			if c.intKeyed() {
				matches, pt = c.lookupInt(kv.I[p])
			} else {
				st.buf = c.encodeKey(st.buf[:0], kv.Value(p))
				matches = c.htable[string(st.buf)]
			}
		}
		if len(matches) == 0 {
			continue
		}
		if colOut {
			for _, idx := range matches {
				if len(c.j.Residual) > 0 {
					for si, slot := range c.storeSlots {
						st.scratch[slot] = pt.store[si].Value(int(idx))
					}
					for _, vi := range st.probeSrc {
						st.scratch[sb.Slots[vi]] = sb.B.Cols[vi].Value(p)
					}
					if !passes(c.residual, st.scratch) {
						continue
					}
				}
				for si := 0; si < nStoreCols; si++ {
					outB.Cols[si].AppendFrom(pt.store[si], int(idx))
				}
				for k, vi := range st.probeSrc {
					outB.Cols[nStoreCols+k].AppendFrom(sb.B.Cols[vi], p)
				}
				outCount++
			}
			continue
		}
		for _, idx := range matches {
			var out value.Row
			if c.storeRows != nil {
				out = c.storeRows[idx].Clone()
			} else {
				out = make(value.Row, c.ctx.TotalSlots)
				for si, slot := range c.storeSlots {
					out[slot] = pt.store[si].Value(int(idx))
				}
			}
			if probeRow != nil {
				for s2, v := range probeRow {
					if !v.IsNull() {
						out[s2] = v
					}
				}
			} else {
				for vi, slot := range sb.Slots {
					if slot < 0 {
						continue
					}
					if v := sb.B.Cols[vi].Value(p); !v.IsNull() {
						out[slot] = v
					}
				}
			}
			if !passes(c.residual, out) {
				continue
			}
			rows = append(rows, out)
		}
	}
	if colOut {
		if outCount == 0 {
			return nil
		}
		outB.SetLen(outCount)
		return &SlotBatch{B: outB, Slots: st.outSlots}
	}
	if len(rows) == 0 {
		return nil
	}
	return &SlotBatch{Rows: rows}
}

// fusedProbe runs the probe scan morsel-driven, probing each morsel's
// batches against the (read-only) build table on the worker and
// gathering owned output batches in morsel order — the serial emission
// order. The probe charges land on worker forks; sums are unchanged, so
// Metrics match a serial probe bit for bit.
func (c *batchHashJoin) fusedProbe(scan *plan.Scan, morsels []colstore.ScanPartition) error {
	c.fused = true
	outs := make([][]*SlotBatch, len(morsels))
	err := runMorsels(c.ctx, scan, morsels, true, func(mi int, wctx *Context, src *csiBatchSource) error {
		st := c.newProbeState(true)
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
	for _, o := range outs {
		c.gathered = append(c.gathered, o...)
	}
	return nil
}
