// Encoding-aware predicate kernels: range and equality filters
// evaluated directly on the compressed segment representation, emitting
// a selection vector of surviving row positions without materializing a
// single value.Value. This is the "operate on compressed data" half of
// the columnstore scan advantage the paper's Section 3 micro-benchmarks
// measure: dictionary predicates compare integer codes instead of
// strings, RLE runs are accepted or rejected whole in O(runs), and
// bit-packed comparisons run over a block-unpacked word buffer.
//
// A predicate is compiled once per segment into the segment's unsigned
// delta domain (value - base). Because every stored delta is a true
// uint64 difference, an arbitrary int64 comparison constant folds into
// one of three shapes: a whole-segment verdict (constant below base or
// above base+maxd), or an unsigned compare against a single threshold.
// The compiled form is therefore branch-light and identical across
// encodings; only the iteration differs.
package colstore

import (
	"cmp"
	"sort"

	"hybriddb/internal/metrics"
	"hybriddb/internal/value"
)

// Process-wide kernel fast-path counters.
var (
	mKernelBatches     = metrics.NewCounter("hybriddb_colstore_kernel_batches_total", "scan batches filtered by encoding-aware predicate kernels")
	mKernelFallbacks   = metrics.NewCounter("hybriddb_colstore_kernel_fallback_batches_total", "scan batches where pushed predicates used the naive post-decode fallback")
	mKernelRowsPruned  = metrics.NewCounter("hybriddb_colstore_kernel_rows_pruned_total", "rows eliminated by predicate kernels before any column was decoded")
	mKernelRunsSkipped = metrics.NewCounter("hybriddb_colstore_kernel_runs_skipped_total", "whole RLE runs rejected by predicate kernels in O(1)")
)

// PredOp is a pushable comparison operator.
type PredOp uint8

// Comparison operators the kernels evaluate.
const (
	PredEQ PredOp = iota
	PredNE
	PredLT
	PredLE
	PredGT
	PredGE
)

// predOpNames spells each PredOp as SQL does, indexed by the operator.
var predOpNames = [...]string{"=", "<>", "<", "<=", ">", ">="}

// ParseOp maps a SQL comparison operator to its kernel form.
func ParseOp(op string) (PredOp, bool) {
	for i, name := range predOpNames {
		if name == op {
			return PredOp(i), true
		}
	}
	return 0, false
}

func (op PredOp) String() string { return predOpNames[op] }

// Pred is one predicate pushed into a columnstore scan: column <op>
// constant. NULL column values never match, mirroring SQL comparison
// semantics; Val must be non-null.
type Pred struct {
	Col int
	Op  PredOp
	Val value.Value
}

// Pushable reports whether a predicate comparing a column of the given
// kind against the given constant can run on the kernel fast path.
// Floats are excluded: their bit representation is not order-preserving
// for negatives, so they stay on the expression fallback.
func Pushable(kind value.Kind, v value.Value) bool {
	switch kind {
	case value.KindString:
		return v.Kind() == value.KindString
	case value.KindInt, value.KindDate, value.KindBool:
		switch v.Kind() {
		case value.KindInt, value.KindDate, value.KindBool:
			return true
		}
	}
	return false
}

// Match evaluates the predicate against a materialized value — the
// naive reference semantics the kernels must reproduce bit for bit
// (also the typed compare of exec's batchPred: integer-representable
// kinds compare by their int64 representation, strings
// lexicographically).
func (p Pred) Match(v value.Value) bool {
	if v.IsNull() {
		return false
	}
	if v.Kind() == value.KindString {
		return p.Op.Holds(cmp.Compare(v.Str(), p.Val.Str()))
	}
	return p.Op.Holds(cmp.Compare(intRep(v), intRep(p.Val)))
}

// Holds reports whether the operator accepts a three-way comparison
// result cmp (negative, zero or positive: column versus constant).
func (op PredOp) Holds(cmp int) bool {
	switch op {
	case PredEQ:
		return cmp == 0
	case PredNE:
		return cmp != 0
	case PredLT:
		return cmp < 0
	case PredLE:
		return cmp <= 0
	case PredGT:
		return cmp > 0
	default: // PredGE
		return cmp >= 0
	}
}

// segPred is a predicate compiled against one segment.
type segPred struct {
	seg     *segment
	verdict int8   // +1: every non-null row matches; -1: no row matches; 0: compare
	op      PredOp // valid when verdict == 0
	t       uint64 // threshold in the segment's unsigned delta domain
}

// compilePred folds p into the segment's delta domain. The result is
// either a whole-segment verdict or an unsigned threshold compare.
func compilePred(s *segment, p Pred) segPred {
	sp := segPred{seg: s}
	if s.n == 0 || s.min.IsNull() {
		// Empty or all-null segment: comparisons never match.
		sp.verdict = -1
		return sp
	}
	op := p.Op
	var rep int64
	if s.kind == value.KindString {
		var done bool
		rep, op, done = stringRep(s, p)
		if done {
			sp.verdict = verdictFor(op)
			return sp
		}
	} else {
		rep = intRep(p.Val)
	}
	if rep < s.base {
		// Every stored value is >= base > rep.
		switch op {
		case PredEQ, PredLT, PredLE:
			sp.verdict = -1
		default:
			sp.verdict = 1
		}
		return sp
	}
	d := uint64(rep) - uint64(s.base) // true difference: rep >= base
	if d > s.maxd {
		// Every stored value is <= base+maxd < rep.
		switch op {
		case PredEQ, PredGT, PredGE:
			sp.verdict = -1
		default:
			sp.verdict = 1
		}
		return sp
	}
	sp.op, sp.t = op, d
	return sp
}

// verdictFor maps the sentinel ops stringRep returns for absent
// dictionary constants: PredEQ means "match nothing", PredNE "match
// every non-null row".
func verdictFor(op PredOp) int8 {
	if op == PredNE {
		return 1
	}
	return -1
}

// stringRep translates a string predicate into the dictionary-code
// domain. The dictionary is sorted, so code order is lexical order and
// range predicates become code-range predicates without decoding a
// single string. done=true short-circuits to a whole-segment verdict
// (op PredEQ: nothing matches; op PredNE: all non-null match).
func stringRep(s *segment, p Pred) (rep int64, op PredOp, done bool) {
	val := p.Val.Str()
	idx := sort.SearchStrings(s.dict, val)
	exact := idx < len(s.dict) && s.dict[idx] == val
	switch p.Op {
	case PredEQ:
		if !exact {
			return 0, PredEQ, true
		}
		return int64(idx), PredEQ, false
	case PredNE:
		if !exact {
			return 0, PredNE, true
		}
		return int64(idx), PredNE, false
	case PredLT, PredGE:
		// code < idx  ⇔  dict[code] < val;  code >= idx  ⇔  dict[code] >= val.
		return int64(idx), p.Op, false
	default: // PredLE, PredGT split around the last code <= val
		hi := idx - 1
		if exact {
			hi = idx
		}
		if hi < 0 {
			if p.Op == PredLE {
				return 0, PredEQ, true // nothing <= val
			}
			return 0, PredNE, true // everything > val
		}
		return int64(hi), p.Op, false
	}
}

// cmpU applies the compiled compare to one unsigned delta.
func cmpU(u, t uint64, op PredOp) bool {
	switch op {
	case PredEQ:
		return u == t
	case PredNE:
		return u != t
	case PredLT:
		return u < t
	case PredLE:
		return u <= t
	case PredGT:
		return u > t
	default:
		return u >= t
	}
}

// kernelBlock is the number of packed values unpacked per compare
// block. One block of uint64s is 4KB — comfortably cache-resident.
const kernelBlock = 512

// first evaluates the compiled predicate over group rows [from, to),
// appending matching positions to sel (absolute group-row indexes,
// ascending). runsSkipped is incremented for every whole RLE run
// rejected without touching its rows.
func (sp *segPred) first(sel []int, from, to int, unpackBuf []uint64, runsSkipped *int64) ([]int, []uint64) {
	s := sp.seg
	switch {
	case sp.verdict < 0:
		return sel, unpackBuf
	case sp.verdict > 0:
		return appendLive(sel, s, from, to), unpackBuf
	}
	switch s.enc {
	case encConst:
		if cmpU(0, sp.t, sp.op) {
			return appendLive(sel, s, from, to), unpackBuf
		}
		return sel, unpackBuf
	case encRLE:
		for r, i := s.runAt(from), from; i < to; r++ {
			end := min(s.runEnd(r), to)
			if cmpU(uint64(s.runs[r].val), sp.t, sp.op) {
				sel = appendLive(sel, s, i, end)
			} else {
				*runsSkipped++
				mKernelRunsSkipped.Inc()
			}
			i = end
		}
		return sel, unpackBuf
	default: // encPacked: block-unpack then tight compare loop
		for i := from; i < to; i += kernelBlock {
			end := i + kernelBlock
			if end > to {
				end = to
			}
			unpackBuf = s.unpackRange(unpackBuf, i, end)
			if s.nulls == nil {
				for j, u := range unpackBuf {
					if cmpU(u, sp.t, sp.op) {
						sel = append(sel, i+j)
					}
				}
			} else {
				for j, u := range unpackBuf {
					if cmpU(u, sp.t, sp.op) && !s.isNull(i+j) {
						sel = append(sel, i+j)
					}
				}
			}
		}
		return sel, unpackBuf
	}
}

// appendLive appends [from, to) minus null positions.
func appendLive(sel []int, s *segment, from, to int) []int {
	if s.nulls == nil {
		for i := from; i < to; i++ {
			sel = append(sel, i)
		}
		return sel
	}
	for i := from; i < to; i++ {
		if !s.isNull(i) {
			sel = append(sel, i)
		}
	}
	return sel
}

// refine filters sel (ascending absolute positions) in place, keeping
// only positions whose value in this predicate's segment matches.
func (sp *segPred) refine(sel []int) []int {
	s := sp.seg
	if sp.verdict < 0 {
		return sel[:0]
	}
	if sp.verdict > 0 || s.enc == encConst {
		if sp.verdict == 0 && !cmpU(0, sp.t, sp.op) {
			return sel[:0]
		}
		if s.nulls == nil {
			return sel
		}
		out := sel[:0]
		for _, p := range sel {
			if !s.isNull(p) {
				out = append(out, p)
			}
		}
		return out
	}
	out := sel[:0]
	switch s.enc {
	case encPacked:
		for _, p := range sel {
			if cmpU(s.getPacked(p), sp.t, sp.op) && !s.isNull(p) {
				out = append(out, p)
			}
		}
	default: // encRLE: sel is ascending, walk runs with one pointer
		if len(sel) == 0 {
			return out
		}
		r := s.runAt(sel[0])
		end := s.runEnd(r)
		for _, p := range sel {
			for p >= end {
				r++
				end = s.runEnd(r)
			}
			if cmpU(uint64(s.runs[r].val), sp.t, sp.op) && !s.isNull(p) {
				out = append(out, p)
			}
		}
	}
	return out
}
