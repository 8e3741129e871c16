package plan

import (
	"strings"
	"testing"

	"hybriddb/internal/colstore"
	"hybriddb/internal/sql"
	"hybriddb/internal/table"
	"hybriddb/internal/value"
)

// litCmp builds the predicate col < lit(v) for shape testing.
func litCmp(col string, v int64) sql.Expr {
	return &sql.BinOp{Op: "<", L: &sql.ColRef{Name: col}, R: &sql.Lit{Val: value.NewInt(v)}}
}

func testPlan(filterVal int64, estRows float64, n int64) *Root {
	scan := &Scan{
		Est:       Est{Rows: estRows, Cost: 123},
		Table:     &table.Table{Name: "t"},
		Access:    AccessCSIScan,
		SeekCol:   2,
		Lo:        Bound{Val: value.NewInt(filterVal), Inclusive: true},
		Hi:        Bound{Unbounded: true},
		Push:      []colstore.Pred{{Col: 1, Op: colstore.PredGE, Val: value.NewInt(filterVal)}},
		Filter:    []sql.Expr{litCmp("v", filterVal)},
		NeedCols:  []int{0, 1, 2},
		BatchMode: true,
		Parallel:  true,
	}
	agg := &Agg{
		Input:      scan,
		Strategy:   AggHash,
		GroupSlots: []int{0},
		Specs:      []AggSpec{{Func: AggSum, Arg: &sql.ColRef{Name: "v"}}, {Func: AggCount}},
		BatchMode:  true,
		Parallel:   true,
	}
	top := &Top{Input: agg, N: n}
	return &Root{Input: top, DOP: 8, Columns: []string{"g", "s", "c"}}
}

// TestShapeStableAcrossConstants checks that plans differing only in
// literal values, estimates, and TOP N render the same shape, while
// structural changes do not.
func TestShapeStableAcrossConstants(t *testing.T) {
	a := Shape(testPlan(10, 100, 5))
	b := Shape(testPlan(99999, 1e6, 50))
	if a != b {
		t.Errorf("shapes diverge on constants only:\n%s\nvs\n%s", a, b)
	}

	// A structural change (different DOP) must change the shape.
	other := testPlan(10, 100, 5)
	other.DOP = 1
	if Shape(other) == a {
		t.Error("shape ignores DOP")
	}
}

// TestShapeContent spot-checks what the rendering includes and omits.
func TestShapeContent(t *testing.T) {
	s := Shape(testPlan(42, 7, 3))
	for _, want := range []string{
		"ColumnstoreScan(t)", "push=[col1>=?]", "filter=[(v < ?)]",
		"HashAggregate(groups=[0] specs=[SUM(v) COUNT])", "Top", "[dop=8]",
		"prune=col2 range=[?,+inf)", "batch", "parallel",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("Shape missing %q:\n%s", want, s)
		}
	}
	for _, leak := range []string{"42", "rows=7", "cost"} {
		if strings.Contains(s, leak) {
			t.Errorf("Shape leaked %q:\n%s", leak, s)
		}
	}
}

// TestShapeIndexName checks secondary-seek shapes carry the index name
// (two plans over different indexes must not collide).
func TestShapeIndexName(t *testing.T) {
	mk := func(idx string) *Root {
		scan := &Scan{
			Table:  &table.Table{Name: "t"},
			Access: AccessSecondarySeek,
			Index:  &table.Secondary{Name: idx},
			Lo:     Bound{Val: value.NewInt(1), Inclusive: true},
			Hi:     Bound{Val: value.NewInt(2), Inclusive: false},
		}
		return &Root{Input: scan, DOP: 1}
	}
	a, b := Shape(mk("ix_a")), Shape(mk("ix_b"))
	if a == b {
		t.Error("shapes collide across different indexes")
	}
	if !strings.Contains(a, "index=ix_a") || !strings.Contains(a, "range=[?,?)") {
		t.Errorf("seek shape: %s", a)
	}
}
