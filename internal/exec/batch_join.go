package exec

import (
	"math"
	"math/bits"

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
// place on the vectors (keysEqual), is equal.
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

	bytes int64
	freed bool

	probe BatchCursor // serial probe input (nil when fused)
	st    *probeState

	fused    bool
	gathered []*SlotBatch
	gpos     int
}

// joinPart is one build-side partition: a columnar row store and the
// chained hash table over it. Rows are assigned to partitions by key
// hash, so every match for one probe key lives in one partition, and
// each partition is appended by exactly one builder scanning the input
// in order — the two facts that make partitioned output row-for-row
// identical to a serial build at any partition count.
type joinPart struct {
	store []*vec.Vec
	keys  []*vec.Vec // the store columns holding the build keys, in Keys order
	head  []int32    // per bucket (the top bits of a key hash): first stored row, -1 if none
	next  []int32    // per stored row: the next row of its bucket, -1 at the end
	shift uint
}

// fill appends the rows of a build batch that belong to partition pi of
// nParts: every key non-NULL (such a row matches nothing) and the key
// hash pi modulo nParts. keys are the batch's key vectors, src the batch
// vector feeding each store column.
func (pt *joinPart) fill(sb *SlotBatch, keys []*vec.Vec, src []int, jk []plan.JoinKey, pi, nParts int) {
	n := sb.Len()
	for _, v := range pt.store {
		v.Reserve(n)
	}
	for i := 0; i < n; i++ {
		p := sb.B.LiveIndex(i)
		if anyNull(keys, p) || nParts > 1 && int(keyHash(keys, jk, p)%uint64(nParts)) != pi {
			continue
		}
		for si, vi := range src {
			pt.store[si].AppendFrom(sb.B.Cols[vi], p)
		}
	}
}

// link chains every stored row into its bucket, last row first, so each
// chain runs in build-input order. The bucket is the key hash's top
// bits (partitions route on its low bits), over more buckets than rows.
func (pt *joinPart) link(jk []plan.JoinKey) {
	n := pt.keys[0].Len()
	b := bits.Len(uint(n))
	pt.shift = uint(64 - b)
	pt.head = make([]int32, 1<<b)
	for i := range pt.head {
		pt.head[i] = -1
	}
	pt.next = make([]int32, n)
	for i := n - 1; i >= 0; i-- {
		bk := keyHash(pt.keys, jk, i) >> pt.shift
		pt.next[i], pt.head[bk] = pt.head[bk], int32(i)
	}
}

// mix is the splitmix64 finalizer. Raw payloads are scrambled through
// it so that sequential surrogate keys spread over buckets and
// partitions instead of striping.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// keyHash combines the hashes of position p's key columns, each read in
// its pair's kind: an integer-backed payload as it is, a number widened
// to DOUBLE with −0.0 made +0.0, a string by its bytes (FNV-1a).
func keyHash(keys []*vec.Vec, jk []plan.JoinKey, p int) uint64 {
	var h uint64
	for k, v := range keys {
		var x uint64
		switch jk[k].Kind {
		case value.KindFloat:
			x = math.Float64bits(floatAt(v, p) + 0) // −0.0 + 0 is +0.0
		case value.KindString:
			x = 14695981039346656037
			for _, ch := range []byte(v.S[p]) {
				x = (x ^ uint64(ch)) * 1099511628211
			}
		default:
			x = uint64(v.I[p])
		}
		h = mix(h ^ x)
	}
	return h
}

// keysEqual reports whether build row i (key vectors bk) and probe
// position p (key vectors pk) carry equal keys, each pair compared in
// its kind. Neither side holds a NULL key here.
func keysEqual(bk []*vec.Vec, i int, pk []*vec.Vec, p int, jk []plan.JoinKey) bool {
	for k, b := range bk {
		switch jk[k].Kind {
		case value.KindFloat:
			if floatAt(b, i) != floatAt(pk[k], p) {
				return false
			}
		case value.KindString:
			if b.S[i] != pk[k].S[p] {
				return false
			}
		default:
			if b.I[i] != pk[k].I[p] {
				return false
			}
		}
	}
	return true
}

// floatAt reads a numeric vector's position p widened to DOUBLE.
func floatAt(v *vec.Vec, p int) float64 {
	if v.Kind == value.KindFloat {
		return v.F[p]
	}
	return float64(v.I[p])
}

func anyNull(keys []*vec.Vec, p int) bool {
	for _, v := range keys {
		if v.IsNull(p) {
			return true
		}
	}
	return false
}

// keyVecs returns the vectors of a columnar batch that carry each key's
// build (Left) or probe (Right) slot, or nil when one is not carried.
func keyVecs(sb *SlotBatch, keys []plan.JoinKey, probe bool) []*vec.Vec {
	out := make([]*vec.Vec, len(keys))
	for k, jk := range keys {
		slot := jk.Left
		if probe {
			slot = jk.Right
		}
		vi := slotVec(sb.Slots, slot)
		if vi < 0 {
			return nil
		}
		out[k] = sb.B.Cols[vi]
	}
	return out
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
	build, err := buildInput(ctx, j.Outer, false)
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
		keys := keyVecs(sb, j.Keys, false)
		if len(c.parts) > 1 {
			if err := c.buildPartitionedBatch(sb, keys, src); err != nil {
				return nil, err
			}
			continue
		}
		c.parts[0].fill(sb, keys, src, j.Keys, 0, 1)
		c.chargeBuild(sb, keys[0])
	}
	for _, pt := range c.parts {
		pt.link(j.Keys)
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
	if sb.Rows == nil && keyVecs(sb, c.j.Keys, false) != nil {
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
		nParts = buildPartitions(c.ctx)
	}
	for pi := 0; pi < nParts; pi++ {
		pt := &joinPart{} // unsized: fill reserves each batch's rows
		for _, k := range kinds {
			pt.store = append(pt.store, &vec.Vec{Kind: k})
		}
		for _, jk := range c.j.Keys {
			pt.keys = append(pt.keys, pt.store[slotVec(c.storeSlots, jk.Left)])
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

// chargeBuild issues one build batch's charges in input order: per row
// whose first key is non-NULL, Alloc of its composite-row width + 32,
// then HashCPU.
func (c *batchHashJoin) chargeBuild(sb *SlotBatch, key0 *vec.Vec) {
	m := c.ctx.Tr.Model
	n := sb.Len()
	for i := 0; i < n; i++ {
		if key0.IsNull(sb.B.LiveIndex(i)) {
			continue
		}
		w := int64(sb.rowWidth(i, c.ctx.TotalSlots) + 32)
		c.ctx.Tr.Alloc(w)
		c.bytes += w
		c.ctx.Tr.ChargeParallelCPU(vclock.CPU(1, m.HashCPU), 1.0)
	}
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
		c.parts[pi].fill(sb, keys, src, c.j.Keys, pi, P)
		return nil
	}, func() { c.chargeBuild(sb, keys[0]) })
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

// rowKeyVecs copies the keys of a row-layout probe batch into
// st.rowKeys.
func (st *probeState) rowKeyVecs(rows []value.Row, keys []plan.JoinKey) []*vec.Vec {
	if st.rowKeys == nil {
		for _, jk := range keys {
			st.rowKeys = append(st.rowKeys, vec.NewVec(jk.Kind))
		}
	}
	for k, jk := range keys {
		v := st.rowKeys[k]
		v.Reset()
		for _, row := range rows {
			v.Append(row[jk.Right])
		}
	}
	return st.rowKeys
}

// probeOne probes one input batch against the build table, returning an
// output batch of joined rows, or nil when no probe row survived.
func (c *batchHashJoin) probeOne(tr *vclock.Tracker, sb *SlotBatch, st *probeState) *SlotBatch {
	m := tr.Model
	var keys []*vec.Vec
	if sb.Rows == nil {
		if keys = keyVecs(sb, c.j.Keys, true); keys == nil {
			// A key column not decoded in this batch shape: probe the
			// whole batch as composite rows.
			sb = &SlotBatch{Rows: sb.materializeRows(c.ctx.TotalSlots)}
		}
	}
	if sb.Rows != nil {
		keys = st.rowKeyVecs(sb.Rows, c.j.Keys)
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

	st.mParts, st.mRows, st.mProbe = st.mParts[:0], st.mRows[:0], st.mProbe[:0]
	var rows []value.Row
	n := sb.Len()
	for i := 0; i < n; i++ {
		tr.ChargeParallelCPU(vclock.CPU(1, m.HashCPU), 1.0)
		p := i
		if sb.Rows == nil {
			p = sb.B.LiveIndex(i)
		}
		if c.parts == nil || anyNull(keys, p) {
			continue
		}
		h := keyHash(keys, c.j.Keys, p)
		pi := 0
		if len(c.parts) > 1 {
			pi = int(h % uint64(len(c.parts)))
		}
		pt := c.parts[pi]
		for idx := pt.head[h>>pt.shift]; idx >= 0; idx = pt.next[idx] {
			if !keysEqual(pt.keys, int(idx), keys, p, c.j.Keys) {
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
			if sb.Rows != nil {
				for s2, v := range sb.Rows[i] {
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
	c.fused = true
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
	for _, o := range outs {
		c.gathered = append(c.gathered, o...)
	}
	return nil
}
