package sql

import (
	"fmt"

	"hybriddb/internal/value"
)

// Catalog resolves table names to schemas during binding.
type Catalog interface {
	TableSchema(name string) (*value.Schema, bool)
}

// BoundTable is a resolved FROM entry. Offset is where its columns
// start in the executor's composite slot layout.
type BoundTable struct {
	Ref    TableRef
	Schema *value.Schema
	Offset int
}

// BoundItem is one bound output expression.
type BoundItem struct {
	Expr   Expr
	Alias  string
	HasAgg bool
}

// BoundOrder is one bound ORDER BY key. Item >= 0 orders by an output
// item; otherwise Expr orders by an arbitrary bound expression.
type BoundOrder struct {
	Item int
	Expr Expr
	Desc bool
}

// BoundSelect is a fully resolved SELECT ready for planning.
type BoundSelect struct {
	Stmt       *SelectStmt
	Tables     []BoundTable
	TotalSlots int
	Conjuncts  []Expr
	Items      []BoundItem
	GroupBy    []*ColRef
	OrderBy    []BoundOrder
	Aggregate  bool
}

// BoundInsert is a resolved INSERT with literal rows evaluated.
type BoundInsert struct {
	Table  string
	Schema *value.Schema
	Rows   []value.Row
}

// BoundUpdate is a resolved UPDATE.
type BoundUpdate struct {
	Table     string
	Schema    *value.Schema
	Top       int64
	SetCols   []int
	SetExprs  []Expr // full expression for the new value (+= expanded)
	Conjuncts []Expr
}

// BoundDelete is a resolved DELETE.
type BoundDelete struct {
	Table     string
	Schema    *value.Schema
	Top       int64
	Conjuncts []Expr
}

// Binder resolves statements against a catalog.
type Binder struct {
	cat Catalog
}

// NewBinder returns a binder over the catalog.
func NewBinder(cat Catalog) *Binder { return &Binder{cat: cat} }

// BindSelect resolves a SELECT statement.
func (b *Binder) BindSelect(s *SelectStmt) (*BoundSelect, error) {
	out := &BoundSelect{Stmt: s}
	seen := map[string]bool{}
	for _, ref := range s.From {
		sch, ok := b.cat.TableSchema(ref.Table)
		if !ok {
			return nil, fmt.Errorf("sql: unknown table %q", ref.Table)
		}
		if seen[ref.Name()] {
			return nil, fmt.Errorf("sql: duplicate table name %q (alias needed)", ref.Name())
		}
		seen[ref.Name()] = true
		out.Tables = append(out.Tables, BoundTable{Ref: ref, Schema: sch, Offset: out.TotalSlots})
		out.TotalSlots += sch.Len()
	}
	if len(out.Tables) == 0 {
		return nil, fmt.Errorf("sql: SELECT without FROM")
	}
	// WHERE.
	if s.Where != nil {
		bound, err := b.bindExpr(s.Where, out.Tables, false)
		if err != nil {
			return nil, err
		}
		out.Conjuncts = Conjuncts(bound)
	}
	// Select items. Expand *.
	for _, item := range s.Items {
		if item.Star {
			for _, t := range out.Tables {
				for ci, col := range t.Schema.Columns {
					out.Items = append(out.Items, BoundItem{
						Expr: &ColRef{
							Table: t.Ref.Name(), Name: col.Name,
							Col: ci, Slot: t.Offset + ci, Kind: col.Kind,
						},
						Alias: col.Name,
					})
				}
			}
			continue
		}
		bound, err := b.bindExpr(item.Expr, out.Tables, true)
		if err != nil {
			return nil, err
		}
		bi := BoundItem{Expr: bound, Alias: item.Alias}
		WalkExprs(bound, func(e Expr) {
			if _, ok := e.(*AggCall); ok {
				bi.HasAgg = true
			}
		})
		if bi.Alias == "" {
			if c, ok := bound.(*ColRef); ok {
				bi.Alias = c.Name
			} else {
				bi.Alias = fmt.Sprintf("expr%d", len(out.Items)+1)
			}
		}
		out.Items = append(out.Items, bi)
		if bi.HasAgg {
			out.Aggregate = true
		}
	}
	// GROUP BY: column references only.
	for _, g := range s.GroupBy {
		bound, err := b.bindExpr(g, out.Tables, false)
		if err != nil {
			return nil, err
		}
		cr, ok := bound.(*ColRef)
		if !ok {
			return nil, fmt.Errorf("sql: GROUP BY supports column references only, got %s", bound)
		}
		out.GroupBy = append(out.GroupBy, cr)
		out.Aggregate = true
	}
	if out.Aggregate {
		// Every non-aggregate output must be a grouping column.
		for _, it := range out.Items {
			if it.HasAgg {
				continue
			}
			cr, ok := it.Expr.(*ColRef)
			if !ok {
				return nil, fmt.Errorf("sql: non-aggregate output %s must be a grouping column", it.Expr)
			}
			found := false
			for _, g := range out.GroupBy {
				if g.Slot == cr.Slot {
					found = true
					break
				}
			}
			if !found {
				return nil, fmt.Errorf("sql: column %s must appear in GROUP BY", cr)
			}
		}
	}
	// ORDER BY: an output alias, output column, or any bound expression.
	for _, o := range s.OrderBy {
		bo := BoundOrder{Item: -1, Desc: o.Desc}
		if cr, ok := o.Expr.(*ColRef); ok && cr.Table == "" {
			for i, it := range out.Items {
				if it.Alias == cr.Name {
					bo.Item = i
					break
				}
			}
		}
		if bo.Item < 0 {
			bound, err := b.bindExpr(o.Expr, out.Tables, false)
			if err != nil {
				return nil, err
			}
			// If it matches an output item expression, order by that item.
			for i, it := range out.Items {
				if c1, ok := bound.(*ColRef); ok {
					if c2, ok2 := it.Expr.(*ColRef); ok2 && c1.Slot == c2.Slot {
						bo.Item = i
						break
					}
				}
			}
			if bo.Item < 0 {
				if out.Aggregate {
					return nil, fmt.Errorf("sql: ORDER BY %s is not in the output of an aggregate query", o.Expr)
				}
				bo.Expr = bound
			}
		}
		out.OrderBy = append(out.OrderBy, bo)
	}
	return out, nil
}

// BindInsert resolves an INSERT; row expressions must be constant.
func (b *Binder) BindInsert(s *InsertStmt) (*BoundInsert, error) {
	sch, ok := b.cat.TableSchema(s.Table)
	if !ok {
		return nil, fmt.Errorf("sql: unknown table %q", s.Table)
	}
	out := &BoundInsert{Table: s.Table, Schema: sch}
	for ri, exprs := range s.Rows {
		if len(exprs) != sch.Len() {
			return nil, fmt.Errorf("sql: row %d has %d values, table %q has %d columns", ri+1, len(exprs), s.Table, sch.Len())
		}
		row := make(value.Row, len(exprs))
		for ci, e := range exprs {
			if !isConst(e) {
				return nil, fmt.Errorf("sql: INSERT values must be constants, got %s", e)
			}
			v := Eval(e, nil)
			cv, err := coerceValue(v, sch.Columns[ci].Kind)
			if err != nil {
				return nil, fmt.Errorf("sql: column %q: %v", sch.Columns[ci].Name, err)
			}
			row[ci] = cv
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// BindUpdate resolves an UPDATE. += / -= expand to col = col op val.
func (b *Binder) BindUpdate(s *UpdateStmt) (*BoundUpdate, error) {
	sch, ok := b.cat.TableSchema(s.Table)
	if !ok {
		return nil, fmt.Errorf("sql: unknown table %q", s.Table)
	}
	tables := []BoundTable{{Ref: TableRef{Table: s.Table}, Schema: sch}}
	out := &BoundUpdate{Table: s.Table, Schema: sch, Top: s.Top}
	for _, set := range s.Sets {
		ord := sch.Ordinal(set.Col)
		if ord < 0 {
			return nil, fmt.Errorf("sql: unknown column %q in SET", set.Col)
		}
		val, err := b.bindExpr(set.Val, tables, false)
		if err != nil {
			return nil, err
		}
		// Coerce literal assignments to the column's kind (e.g. a date
		// string assigned to a DATE column).
		val = coerceLitTo(val, sch.Columns[ord].Kind)
		switch set.Op {
		case "+=":
			val = &BinOp{Op: "+", L: colRefFor(sch, ord, 0), R: val}
		case "-=":
			val = &BinOp{Op: "-", L: colRefFor(sch, ord, 0), R: val}
		}
		out.SetCols = append(out.SetCols, ord)
		out.SetExprs = append(out.SetExprs, val)
	}
	if s.Where != nil {
		bound, err := b.bindExpr(s.Where, tables, false)
		if err != nil {
			return nil, err
		}
		out.Conjuncts = Conjuncts(bound)
	}
	return out, nil
}

// BindDelete resolves a DELETE.
func (b *Binder) BindDelete(s *DeleteStmt) (*BoundDelete, error) {
	sch, ok := b.cat.TableSchema(s.Table)
	if !ok {
		return nil, fmt.Errorf("sql: unknown table %q", s.Table)
	}
	tables := []BoundTable{{Ref: TableRef{Table: s.Table}, Schema: sch}}
	out := &BoundDelete{Table: s.Table, Schema: sch, Top: s.Top}
	if s.Where != nil {
		bound, err := b.bindExpr(s.Where, tables, false)
		if err != nil {
			return nil, err
		}
		out.Conjuncts = Conjuncts(bound)
	}
	return out, nil
}

func colRefFor(sch *value.Schema, ord, offset int) *ColRef {
	return &ColRef{
		Name: sch.Columns[ord].Name, Col: ord,
		Slot: offset + ord, Kind: sch.Columns[ord].Kind,
	}
}

// bindExpr resolves column references and applies literal coercions.
func (b *Binder) bindExpr(e Expr, tables []BoundTable, allowAgg bool) (Expr, error) {
	switch n := e.(type) {
	case *Lit:
		return n, nil
	case *ColRef:
		return b.resolveCol(n, tables)
	case *BinOp:
		l, err := b.bindExpr(n.L, tables, allowAgg)
		if err != nil {
			return nil, err
		}
		r, err := b.bindExpr(n.R, tables, allowAgg)
		if err != nil {
			return nil, err
		}
		l, r = coercePair(l, r)
		out := &BinOp{Op: n.Op, L: l, R: r}
		if col, _, lit, ok := AsComparison(out); ok {
			// coercePair keeps a literal it cannot convert; comparing it
			// would silently order values of different kinds.
			if _, err := coerceValue(lit.Val, col.Kind); err != nil {
				return nil, fmt.Errorf("sql: cannot compare %s column %s with %s literal %s", col.Kind, col.Name, lit.Val.Kind(), lit.Val)
			}
		}
		return out, nil
	case *UnOp:
		inner, err := b.bindExpr(n.E, tables, allowAgg)
		if err != nil {
			return nil, err
		}
		return &UnOp{Op: n.Op, E: inner}, nil
	case *Between:
		inner, err := b.bindExpr(n.E, tables, allowAgg)
		if err != nil {
			return nil, err
		}
		lo, err := b.bindExpr(n.Lo, tables, allowAgg)
		if err != nil {
			return nil, err
		}
		hi, err := b.bindExpr(n.Hi, tables, allowAgg)
		if err != nil {
			return nil, err
		}
		inner, lo = coercePair(inner, lo)
		inner, hi = coercePair(inner, hi)
		return &Between{E: inner, Lo: lo, Hi: hi, Not: n.Not}, nil
	case *IsNull:
		inner, err := b.bindExpr(n.E, tables, allowAgg)
		if err != nil {
			return nil, err
		}
		return &IsNull{E: inner, Not: n.Not}, nil
	case *InList:
		inner, err := b.bindExpr(n.E, tables, allowAgg)
		if err != nil {
			return nil, err
		}
		list := make([]Expr, len(n.List))
		for i, le := range n.List {
			bl, err := b.bindExpr(le, tables, allowAgg)
			if err != nil {
				return nil, err
			}
			_, bl = coercePair(inner, bl)
			list[i] = bl
		}
		return &InList{E: inner, List: list, Not: n.Not}, nil
	case *FuncCall:
		args := make([]Expr, len(n.Args))
		for i, a := range n.Args {
			ba, err := b.bindExpr(a, tables, allowAgg)
			if err != nil {
				return nil, err
			}
			args[i] = ba
		}
		// DATEADD's date argument may be a string literal.
		if len(args) == 2 {
			if lit, ok := args[1].(*Lit); ok && lit.Val.Kind() == value.KindString {
				d, err := ParseDate(lit.Val.Str())
				if err != nil {
					return nil, err
				}
				args[1] = &Lit{Val: d}
			}
		}
		out := &FuncCall{Name: n.Name, Args: args}
		// Constant-fold calls over literals so predicates like
		// col BETWEEN '1998-09-02' AND DATEADD(day, 1, '1998-09-02')
		// stay sargable for index-range selection.
		if isConst(out) {
			return &Lit{Val: Eval(out, nil)}, nil
		}
		return out, nil
	case *AggCall:
		if !allowAgg {
			return nil, fmt.Errorf("sql: aggregate %s not allowed here", n)
		}
		out := &AggCall{Func: n.Func, Star: n.Star, Distinct: n.Distinct}
		if n.Arg != nil {
			arg, err := b.bindExpr(n.Arg, tables, false)
			if err != nil {
				return nil, err
			}
			out.Arg = arg
		}
		return out, nil
	}
	return nil, fmt.Errorf("sql: cannot bind %T", e)
}

func (b *Binder) resolveCol(c *ColRef, tables []BoundTable) (*ColRef, error) {
	var found *ColRef
	for ti := range tables {
		t := &tables[ti]
		if c.Table != "" && c.Table != t.Ref.Name() {
			continue
		}
		ord := t.Schema.Ordinal(c.Name)
		if ord < 0 {
			continue
		}
		if found != nil {
			return nil, fmt.Errorf("sql: ambiguous column %q", c.Name)
		}
		found = &ColRef{
			Table: t.Ref.Name(), Name: c.Name,
			TableIdx: ti, Col: ord, Slot: t.Offset + ord,
			Kind: t.Schema.Columns[ord].Kind,
		}
	}
	if found == nil {
		return nil, fmt.Errorf("sql: unknown column %q", c)
	}
	return found, nil
}

// coercePair rewrites string literals compared against DATE columns
// into date literals, so predicates like l_shipdate = '1998-09-02'
// type-check and use index ranges.
func coercePair(l, r Expr) (Expr, Expr) {
	l2 := coerceLitTo(l, exprKind(r))
	r2 := coerceLitTo(r, exprKind(l))
	return l2, r2
}

func coerceLitTo(e Expr, target value.Kind) Expr {
	lit, ok := e.(*Lit)
	if !ok || target == value.KindNull {
		return e
	}
	v, err := coerceValue(lit.Val, target)
	if err != nil {
		return e
	}
	return &Lit{Val: v}
}

// coerceValue converts v to the target kind when a safe conversion
// exists; otherwise it returns an error for genuinely mismatched kinds
// and v unchanged for compatible ones.
func coerceValue(v value.Value, target value.Kind) (value.Value, error) {
	if v.IsNull() || v.Kind() == target {
		return v, nil
	}
	switch {
	case v.Kind() == value.KindString && target == value.KindDate:
		return ParseDate(v.Str())
	case v.Kind() == value.KindInt && target == value.KindFloat:
		return value.NewFloat(v.Float()), nil
	case v.Kind() == value.KindFloat && target == value.KindInt:
		f := v.Float()
		if f == float64(int64(f)) {
			return value.NewInt(int64(f)), nil
		}
		return v, nil
	case v.Kind() == value.KindInt && target == value.KindDate:
		return value.NewDate(v.Int()), nil
	case v.Kind().Numeric() && target.Numeric():
		return v, nil
	}
	return v, fmt.Errorf("cannot convert %s to %s", v.Kind(), target)
}

// exprKind infers the result kind of a bound expression (KindNull when
// unknown).
func exprKind(e Expr) value.Kind {
	switch n := e.(type) {
	case *Lit:
		return n.Val.Kind()
	case *ColRef:
		return n.Kind
	case *BinOp:
		switch n.Op {
		case "AND", "OR", "=", "<>", "<", "<=", ">", ">=":
			return value.KindBool
		}
		lk, rk := exprKind(n.L), exprKind(n.R)
		if n.Op == "/" || lk == value.KindFloat || rk == value.KindFloat {
			return value.KindFloat
		}
		if lk == value.KindNull {
			return rk
		}
		return lk
	case *UnOp:
		if n.Op == "NOT" {
			return value.KindBool
		}
		return exprKind(n.E)
	case *Between, *IsNull, *InList:
		return value.KindBool
	case *FuncCall:
		return value.KindDate
	case *AggCall:
		switch n.Func {
		case "COUNT":
			return value.KindInt
		case "AVG":
			return value.KindFloat
		default:
			if n.Arg != nil {
				return exprKind(n.Arg)
			}
			return value.KindFloat
		}
	}
	return value.KindNull
}

// ExprKind exposes result-kind inference for other packages.
func ExprKind(e Expr) value.Kind { return exprKind(e) }

func isConst(e Expr) bool {
	ok := true
	WalkExprs(e, func(x Expr) {
		switch x.(type) {
		case *ColRef, *AggCall:
			ok = false
		}
	})
	return ok
}
