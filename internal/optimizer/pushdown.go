package optimizer

import (
	"hybriddb/internal/colstore"
	"hybriddb/internal/sql"
	"hybriddb/internal/value"
)

// splitPushable partitions a table's conjuncts into predicates the
// columnstore scanner can own end to end (evaluated by encoding-aware
// kernels on the compressed representation) and residual expressions
// the executor keeps. The gate is deliberately stricter than the
// kernels themselves: only same-kind int, date, and string comparisons
// are pushed, because the compiled evaluator (value.Compare) widens
// cross-kind numeric comparisons through float64 while the kernels compare exact int64
// representations — pushing those could change results above 2^53.
// Floats are never pushed (their bit pattern is not order-preserving
// for negatives) and bools stay behind the same-kind gate.
func splitPushable(conjuncts []sql.Expr, slotBase int) ([]colstore.Pred, []sql.Expr) {
	var push []colstore.Pred
	var rest []sql.Expr
	for _, c := range conjuncts {
		col, op, lit, ok := sql.AsComparison(c)
		if !ok || col.Kind != lit.Val.Kind() || !kernelKind(col.Kind) {
			rest = append(rest, c)
			continue
		}
		kop, _ := colstore.ParseOp(op) // every operator AsComparison returns parses
		push = append(push, colstore.Pred{Col: col.Slot - slotBase, Op: kop, Val: lit.Val})
	}
	return push, rest
}

// kernelKind reports the kinds the kernels compare exactly.
func kernelKind(k value.Kind) bool {
	return k == value.KindInt || k == value.KindDate || k == value.KindString
}
