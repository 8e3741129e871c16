// Package plan defines the physical plan nodes the optimizer emits and
// the executor runs. Plans operate on composite rows laid out by the
// binder's slot assignment (one slice position per column of every
// FROM table); scans fill their table's slots, joins combine them, and
// a final Project computes the query's output expressions.
package plan

import (
	"time"

	"hybriddb/internal/colstore"
	"hybriddb/internal/sql"
	"hybriddb/internal/table"
	"hybriddb/internal/value"
)

// Node is a physical plan operator.
type Node interface {
	// Children returns the node's inputs.
	Children() []Node
	// Estimate returns the optimizer's row and cost estimates.
	Estimate() (rows float64, cost time.Duration)
	// Describe names the operator for plan rendering.
	Describe() string
}

// Est carries the optimizer's estimates; embedded by every node.
type Est struct {
	Rows float64
	Cost time.Duration // cumulative estimated cost up to this node
}

// Estimate returns the stored estimates.
func (e Est) Estimate() (float64, time.Duration) { return e.Rows, e.Cost }

// AccessKind identifies how a Scan reads its table.
type AccessKind int

// Access kinds. The leaf-level choice between these is exactly the
// hybrid-design decision the paper studies.
const (
	AccessHeapScan      AccessKind = iota // full heap scan
	AccessClusteredScan                   // full clustered B+ tree scan (ordered)
	AccessClusteredSeek                   // clustered B+ tree range seek
	AccessSecondarySeek                   // secondary B+ tree range seek
	AccessCSIScan                         // columnstore scan (batch mode)
)

func (k AccessKind) String() string {
	switch k {
	case AccessHeapScan:
		return "HeapScan"
	case AccessClusteredScan:
		return "ClusteredScan"
	case AccessClusteredSeek:
		return "ClusteredSeek"
	case AccessSecondarySeek:
		return "SecondarySeek"
	default:
		return "ColumnstoreScan"
	}
}

// Bound is one end of a key range ([Val], inclusive or exclusive;
// Unbounded when Val is unset).
type Bound struct {
	Val       value.Value
	Inclusive bool
	Unbounded bool
}

// Scan reads one FROM table through a chosen access path, applies the
// pushed-down filter conjuncts, and emits composite rows (or batches,
// for columnstore scans feeding batch-capable parents).
type Scan struct {
	Est
	Table    *table.Table
	TableIdx int // position in the FROM list
	SlotBase int // first composite slot of this table
	Access   AccessKind
	Index    *table.Secondary // for AccessSecondarySeek (and CSI via secondary)
	SeekCol  int              // table ordinal driving the seek / prune
	Lo, Hi   Bound
	Filter   []sql.Expr // residual conjuncts evaluated on this table's rows
	// Push are column-op-constant conjuncts pushed below Filter into
	// the columnstore scanner's encoding-aware kernels (AccessCSIScan
	// only; Col is a table ordinal). The scanner owns them end to end:
	// rows the scan emits already satisfy them, so the executor must
	// not re-evaluate them.
	Push      []colstore.Pred
	NeedCols  []int // table ordinals the query needs (CSI projection)
	BatchMode bool  // executor consumes batches (CSI only)
	// Covered reports whether the access path contains every needed
	// column; an uncovered secondary seek must look up the base table.
	Covered bool
	// Parallel marks the scan as eligible for morsel-driven execution:
	// the executor may split it into rowgroup morsels across a worker
	// pool. Set by the optimizer when the plan goes parallel (DOP > 1)
	// and the plan shape guarantees a full drain of the scan.
	Parallel bool
}

// Children returns no inputs.
func (*Scan) Children() []Node { return nil }

// Describe names the operator.
func (s *Scan) Describe() string { return s.Access.String() + "(" + s.Table.Name + ")" }

// Filter evaluates residual conjuncts on composite rows.
type Filter struct {
	Est
	Input Node
	Conds []sql.Expr
	// BatchMode marks vectorized evaluation (input must produce batches).
	BatchMode bool
}

// Children returns the input.
func (f *Filter) Children() []Node { return []Node{f.Input} }

// Describe names the operator.
func (f *Filter) Describe() string { return "Filter" }

// JoinStrategy selects the join algorithm.
type JoinStrategy int

// Join strategies.
const (
	JoinNestedLoop JoinStrategy = iota // inner side must be a seekable Scan
	JoinHash
	// JoinMerge requires both inputs ordered on their join columns
	// (e.g. two clustered scans keyed on them) and joins them with O(1)
	// memory — the merge-join benefit of B+ tree sort order the paper's
	// Section 3.2.2 describes.
	JoinMerge
)

func (s JoinStrategy) String() string {
	switch s {
	case JoinNestedLoop:
		return "NestedLoopJoin"
	case JoinMerge:
		return "MergeJoin"
	default:
		return "HashJoin"
	}
}

// JoinKey is one column = column equality between a join's inputs:
// Left is the slot in the outer composite row, Right the slot in the
// inner one, and Kind the kind the two columns compare in
// (sql.BinOp.CmpKind, DOUBLE for two different numeric kinds). NULL
// matches nothing.
type JoinKey struct {
	Left, Right int
	Kind        value.Kind
}

// Join combines two inputs on every equi-predicate between them. Keys
// holds all of them, Keys[0] first: the pair the optimizer ordered the
// join by, which a nested-loop join seeks the inner Scan's index on and
// a merge join merges on; those two check the other pairs per joined
// row. A hash join keys its table on all of them.
type Join struct {
	Est
	Strategy JoinStrategy
	Outer    Node // build/outer side
	Inner    Node // probe/inner side (Scan for nested loop)
	Keys     []JoinKey
	// Parallel marks a hash join whose probe may run morsel-driven
	// (the join output is guaranteed to be fully drained).
	Parallel bool
}

// Children returns both inputs.
func (j *Join) Children() []Node { return []Node{j.Outer, j.Inner} }

// Describe names the operator.
func (j *Join) Describe() string { return j.Strategy.String() }

// AggFunc identifies an aggregate function.
type AggFunc int

// Aggregate functions.
const (
	AggCount AggFunc = iota
	AggSum
	AggAvg
	AggMin
	AggMax
)

func (f AggFunc) String() string {
	return [...]string{"COUNT", "SUM", "AVG", "MIN", "MAX"}[f]
}

// AggSpec is one aggregate computation.
type AggSpec struct {
	Func     AggFunc
	Arg      sql.Expr // nil for COUNT(*)
	Distinct bool
}

// AggStrategy selects the aggregation algorithm.
type AggStrategy int

// Aggregation strategies: hash (any input) or stream (input sorted by
// the group columns, O(1) memory — the B+ tree sort-order benefit of
// Section 3.2.2).
const (
	AggHash AggStrategy = iota
	AggStream
)

// Agg groups composite rows and computes aggregates. Output rows use
// the agg layout: group values first, aggregate results after.
type Agg struct {
	Est
	Input      Node
	Strategy   AggStrategy
	GroupSlots []int
	GroupKinds []value.Kind // the kind of each group column
	Specs      []AggSpec
	BatchMode  bool
	// EstGroups is the optimizer's estimate of the number of groups
	// (drives the memory grant / spill decision).
	EstGroups float64
	// Parallel marks the aggregation for per-worker partial aggregation
	// with a deterministic merge at the gather point.
	Parallel bool
}

// Children returns the input.
func (a *Agg) Children() []Node { return []Node{a.Input} }

// Describe names the operator.
func (a *Agg) Describe() string {
	if a.Strategy == AggStream {
		return "StreamAggregate"
	}
	return "HashAggregate"
}

// Project computes the final output expressions. For aggregate queries
// the expressions have been rewritten to reference the agg layout.
type Project struct {
	Est
	Input Node
	Exprs []sql.Expr
}

// Children returns the input.
func (p *Project) Children() []Node { return []Node{p.Input} }

// Describe names the operator.
func (p *Project) Describe() string { return "Project" }

// SortKey is one sort expression with direction.
type SortKey struct {
	Expr sql.Expr // over the input's row layout
	Desc bool
}

// Sort orders its input. With a bounded memory grant the executor runs
// an external merge sort, spilling runs to the temp device.
type Sort struct {
	Est
	Input Node
	Keys  []SortKey
	// Parallel marks the sort as eligible for morsel-driven execution:
	// per-morsel local sorts over its (Parallel-marked) input scan,
	// merged with a loser tree in morsel-index order. Set by the
	// optimizer when the plan goes parallel and the input is a scan the
	// sort fully drains.
	Parallel bool
}

// Children returns the input.
func (s *Sort) Children() []Node { return []Node{s.Input} }

// Describe names the operator.
func (s *Sort) Describe() string { return "Sort" }

// Top limits output to N rows.
type Top struct {
	Est
	Input Node
	N     int64
}

// Children returns the input.
func (t *Top) Children() []Node { return []Node{t.Input} }

// Describe names the operator.
func (t *Top) Describe() string { return "Top" }

// Root wraps a completed plan with query-level decisions.
type Root struct {
	Est
	Input Node
	// DOP is the degree of parallelism the optimizer chose.
	DOP int
	// MemGrant is the query's working-memory grant in bytes (0 =
	// unlimited); exceeding it forces operators to spill.
	MemGrant int64
	// Output column names.
	Columns []string
}

// Children returns the input.
func (r *Root) Children() []Node { return []Node{r.Input} }

// Describe names the operator.
func (r *Root) Describe() string { return "Root" }

// Walk visits the plan tree pre-order.
func Walk(n Node, fn func(Node)) {
	if n == nil {
		return
	}
	fn(n)
	for _, c := range n.Children() {
		Walk(c, fn)
	}
}

// InputDrained is the plan's one early-stop rule: it reports whether
// input i of n (n.Children()[i]) is always pulled to exhaustion, given
// whether n's own output is (drained). A sort, a hash aggregate and a
// hash join's build side drain their input whatever their consumer
// does; TOP, both sides of a merge join and a nested-loop inner may be
// left unfinished; every other input inherits its consumer's
// guarantee. The optimizer allows morsel-driven operators only where an
// input is drained, and the executor builds every other input under
// its one-row rule.
func InputDrained(n Node, i int, drained bool) bool {
	switch v := n.(type) {
	case *Sort:
		return true
	case *Top:
		return false
	case *Agg:
		return v.Strategy == AggHash || drained
	case *Join:
		switch v.Strategy {
		case JoinHash:
			return i == 0 || drained
		case JoinMerge:
			return false
		default: // nested loop: the inner restarts per outer row
			return i == 0 && drained
		}
	}
	return drained
}

// LeafAccess returns the access kinds of every Scan leaf (plan
// inspection for the Figure 10 experiment).
func LeafAccess(n Node) []AccessKind {
	var out []AccessKind
	Walk(n, func(node Node) {
		if s, ok := node.(*Scan); ok {
			out = append(out, s.Access)
		}
	})
	return out
}
