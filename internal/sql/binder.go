package sql

import (
	"fmt"
	"strings"

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
	Top       int64 // NoTop = no TOP
	SetCols   []int
	SetExprs  []Expr // full expression for the new value (+= expanded)
	Conjuncts []Expr
}

// BoundDelete is a resolved DELETE.
type BoundDelete struct {
	Table     string
	Schema    *value.Schema
	Top       int64 // NoTop = no TOP
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
	// WHERE (and JOIN ... ON, which the parser folds into it).
	var err error
	if out.Conjuncts, err = b.bindCond(s.Where, out.Tables); err != nil {
		return nil, err
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
			bound, err := b.bindExpr(e, nil, false)
			if err != nil {
				return nil, err
			}
			if row[ci], err = assignValue(Compile(bound)(nil), sch.Columns[ci]); err != nil {
				return nil, err
			}
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
		e := set.Val
		if set.Op != "=" { // += and -=
			e = &BinOp{Op: set.Op[:1], L: &ColRef{Name: set.Col}, R: set.Val}
		}
		val, err := b.bindExpr(e, tables, false)
		if err != nil {
			return nil, err
		}
		if val, err = assignExpr(val, sch.Columns[ord]); err != nil {
			return nil, err
		}
		out.SetCols = append(out.SetCols, ord)
		out.SetExprs = append(out.SetExprs, val)
	}
	var err error
	if out.Conjuncts, err = b.bindCond(s.Where, tables); err != nil {
		return nil, err
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
	var err error
	if out.Conjuncts, err = b.bindCond(s.Where, tables); err != nil {
		return nil, err
	}
	return out, nil
}

// bindExpr resolves column references, applies literal coercions and
// types every node it builds (typeOf), so an expression that leaves the
// binder cannot meet a value of the wrong kind when compiled.
func (b *Binder) bindExpr(e Expr, tables []BoundTable, allowAgg bool) (Expr, error) {
	out, err := b.bindNode(e, tables, allowAgg)
	if err != nil {
		return nil, err
	}
	if _, err := typeOf(out); err != nil {
		return nil, err
	}
	return out, nil
}

// bindAll binds each expression (bindExpr).
func (b *Binder) bindAll(es []Expr, tables []BoundTable, allowAgg bool) ([]Expr, error) {
	out := make([]Expr, len(es))
	for i, e := range es {
		var err error
		if out[i], err = b.bindExpr(e, tables, allowAgg); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (b *Binder) bindNode(e Expr, tables []BoundTable, allowAgg bool) (Expr, error) {
	switch n := e.(type) {
	case *Lit:
		return n, nil
	case *ColRef:
		return b.resolveCol(n, tables)
	case *AggCall:
		if !allowAgg {
			return nil, fmt.Errorf("sql: aggregate %s not allowed here", n)
		}
		allowAgg = false // no aggregate inside another
	case *BinOp, *UnOp, *Between, *IsNull, *InList, *FuncCall:
	default:
		return nil, fmt.Errorf("sql: cannot bind %T", e)
	}
	k, err := b.bindAll(Operands(e), tables, allowAgg)
	if err != nil {
		return nil, err
	}
	switch e.(type) {
	case *BinOp:
		k[0], k[1] = coercePair(k[0], k[1])
	case *Between, *InList:
		for i := range k[1:] {
			k[0], k[1+i] = coercePair(k[0], k[1+i])
		}
	case *FuncCall:
		// DATEADD's date argument may be a string literal.
		if len(k) == 2 {
			k[1] = coerceLitTo(k[1], value.KindDate)
		}
	}
	out := WithOperands(e, k)
	switch n := out.(type) {
	case *BinOp:
		if cmpHolds[n.Op] != nil {
			n.CmpKind = commonKind(ExprKind(n.L), ExprKind(n.R))
		}
	case *FuncCall:
		// Constant-fold calls over literals so predicates like
		// col BETWEEN '1998-09-02' AND DATEADD(day, 1, '1998-09-02')
		// stay sargable for index-range selection.
		if _, err := typeOf(n); err != nil {
			return nil, err
		}
		if isConst(n) {
			return &Lit{Val: Compile(n)(nil)}, nil
		}
	}
	return out, nil
}

// bindCond binds a WHERE (or ON, or DML WHERE) condition, which must be
// BOOLEAN, and splits it into conjuncts.
func (b *Binder) bindCond(e Expr, tables []BoundTable) ([]Expr, error) {
	if e == nil {
		return nil, nil
	}
	bound, err := b.bindExpr(e, tables, false)
	if err != nil {
		return nil, err
	}
	if k := ExprKind(bound); k != value.KindBool && k != value.KindNull {
		return nil, fmt.Errorf("sql: WHERE needs a BOOLEAN condition, got %s in %s", k, bound)
	}
	return Conjuncts(bound), nil
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
	l2 := coerceLitTo(l, ExprKind(r))
	r2 := coerceLitTo(r, ExprKind(l))
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

// coerceValue converts v to the target kind when a lossless conversion
// exists, and fails otherwise. A comparison keeps a literal it cannot
// convert (coerceLitTo) for typeOf to judge; a stored value must
// convert (assignValue).
func coerceValue(v value.Value, target value.Kind) (value.Value, error) {
	switch k := v.Kind(); {
	case v.IsNull() || k == target:
		return v, nil
	case k == value.KindString && target == value.KindDate:
		return ParseDate(v.Str())
	case k == value.KindInt && target == value.KindFloat:
		return value.NewFloat(v.Float()), nil
	case k == value.KindFloat && target == value.KindInt && v.Float() == float64(int64(v.Float())):
		return value.NewInt(int64(v.Float())), nil
	case k == value.KindInt && target == value.KindDate:
		return value.NewDate(v.Int()), nil
	}
	return v, fmt.Errorf("cannot convert %s to %s", v.Kind(), target)
}

// assignValue converts a constant to the kind of the column it is
// stored in, or fails: the rule INSERT and a constant SET share.
func assignValue(v value.Value, col value.Column) (value.Value, error) {
	cv, err := coerceValue(v, col.Kind)
	if err != nil {
		return v, fmt.Errorf("sql: column %q: %v", col.Name, err)
	}
	return cv, nil
}

// assignExpr checks a bound SET value against its column: a constant
// is folded and converted (assignValue); any other value must have the
// column's kind, or be a BIGINT bound for a DOUBLE column, which
// CompileAs widens.
func assignExpr(e Expr, col value.Column) (Expr, error) {
	if isConst(e) {
		v, err := assignValue(Compile(e)(nil), col)
		return &Lit{Val: v}, err
	}
	k := ExprKind(e)
	if k == col.Kind || k == value.KindNull || (k == value.KindInt && col.Kind == value.KindFloat) {
		return e, nil
	}
	return nil, fmt.Errorf("sql: column %q: cannot assign %s to %s", col.Name, k, col.Kind)
}

// typeOf is the binder's type checker: the result kind of a bound
// expression (KindNull for one that is always NULL), or an error naming
// the kinds when the expression cannot be evaluated over them. Numeric
// kinds compare with one another; arithmetic takes BIGINT and DOUBLE
// (% BIGINT only); AND, OR and NOT take BOOLEANs; DATEADD adds a BIGINT
// to a DATE; SUM and AVG take numbers.
func typeOf(e Expr) (value.Kind, error) {
	switch n := e.(type) {
	case *Lit:
		return n.Val.Kind(), nil
	case *ColRef:
		return n.Kind, nil
	case *BinOp:
		ks, err := kindsOf(n.L, n.R)
		l, r := kindAt(ks, 0), kindAt(ks, 1)
		switch {
		case err != nil:
			return 0, err
		case n.Op == "AND" || n.Op == "OR":
			return value.KindBool, takes(n, isKind(l, value.KindBool) && isKind(r, value.KindBool), ks)
		case n.Op == "/":
			return value.KindFloat, takes(n, arithmetic(l) && arithmetic(r), ks)
		case arith[n.Op] != nil:
			return commonKind(l, r), takes(n, arithmetic(l) && arithmetic(r), ks)
		case n.Op == "%":
			return value.KindInt, takes(n, isKind(l, value.KindInt) && isKind(r, value.KindInt), ks)
		case cmpHolds[n.Op] != nil:
			return value.KindBool, comparable(n, n.L, n.R)
		}
		return 0, fmt.Errorf("sql: unknown operator %q", n.Op)
	case *UnOp:
		ks, err := kindsOf(n.E)
		switch k := kindAt(ks, 0); {
		case err != nil:
			return 0, err
		case n.Op == "NOT":
			return value.KindBool, takes(n, isKind(k, value.KindBool), ks)
		case n.Op == "-":
			return k, takes(n, arithmetic(k), ks)
		}
		return 0, fmt.Errorf("sql: unknown operator %q", n.Op)
	case *Between:
		if err := comparable(n, n.E, n.Lo); err != nil {
			return 0, err
		}
		return value.KindBool, comparable(n, n.E, n.Hi)
	case *IsNull:
		_, err := typeOf(n.E)
		return value.KindBool, err
	case *InList:
		_, err := typeOf(n.E)
		for _, le := range n.List {
			if err == nil {
				err = comparable(n, n.E, le)
			}
		}
		return value.KindBool, err
	case *FuncCall:
		if dateAddDays[n.Name] == 0 || len(n.Args) != 2 {
			return 0, fmt.Errorf("sql: unknown function %q", n.Name)
		}
		ks, err := kindsOf(n.Args...)
		if err != nil {
			return 0, err
		}
		return value.KindDate, takes(n, isKind(ks[0], value.KindInt) && isKind(ks[1], value.KindDate), ks)
	case *AggCall:
		ks, err := kindsOf(n.Arg)
		switch k := kindAt(ks, 0); {
		case err != nil:
			return 0, err
		case n.Func == "COUNT":
			return value.KindInt, nil
		case n.Func == "MIN" || n.Func == "MAX":
			return k, nil
		case n.Func == "SUM":
			return k, takes(n, arithmetic(k), ks)
		case n.Func == "AVG":
			return value.KindFloat, takes(n, arithmetic(k), ks)
		}
		return 0, fmt.Errorf("sql: unknown aggregate %q", n.Func)
	}
	return 0, fmt.Errorf("sql: cannot type %T", e)
}

// takes is typeOf's verdict on node n over operand kinds ks.
func takes(n Expr, ok bool, ks []value.Kind) error {
	if ok {
		return nil
	}
	names := make([]string, len(ks))
	for i, k := range ks {
		names[i] = k.String()
	}
	return fmt.Errorf("sql: cannot evaluate %s over %s", n, strings.Join(names, " and "))
}

// comparable checks that x and y, operands of the comparison in, can be
// ordered against each other: same kind, both numeric, or one NULL.
func comparable(in, x, y Expr) error {
	ks, err := kindsOf(x, y)
	if err != nil {
		return err
	}
	if xk, yk := ks[0], ks[1]; xk == yk || xk == value.KindNull || yk == value.KindNull || (xk.Numeric() && yk.Numeric()) {
		return nil
	}
	if col, _, lit, ok := AsComparison(&BinOp{Op: "=", L: x, R: y}); ok {
		return fmt.Errorf("sql: cannot compare %s column %s with %s literal %s", col.Kind, col.Name, lit.Val.Kind(), lit.Val)
	}
	return fmt.Errorf("sql: cannot compare %s with %s in %s", ks[0], ks[1], in)
}

// kindsOf types each non-nil expression.
func kindsOf(es ...Expr) ([]value.Kind, error) {
	var ks []value.Kind
	for _, e := range es {
		if e == nil {
			continue
		}
		k, err := typeOf(e)
		if err != nil {
			return nil, err
		}
		ks = append(ks, k)
	}
	return ks, nil
}

// kindAt is ks[i], or KindNull past its end.
func kindAt(ks []value.Kind, i int) value.Kind {
	if i < len(ks) {
		return ks[i]
	}
	return value.KindNull
}

// isKind reports whether a value of kind k is a want or always NULL.
func isKind(k, want value.Kind) bool { return k == want || k == value.KindNull }

// arithmetic reports whether + - * / and unary minus take kind k.
func arithmetic(k value.Kind) bool {
	return k == value.KindInt || k == value.KindFloat || k == value.KindNull
}

// commonKind is the kind two comparable (or arithmetic) operands meet
// in: their shared kind, the other one's when one is always NULL, and
// DOUBLE for two different numeric kinds (value.Compare and value.Add
// widen through float64).
func commonKind(a, b value.Kind) value.Kind {
	switch {
	case a == b || b == value.KindNull:
		return a
	case a == value.KindNull:
		return b
	}
	return value.KindFloat
}

// ExprKind is the result kind of a bound expression (typeOf for one
// already known to type-check).
func ExprKind(e Expr) value.Kind {
	k, _ := typeOf(e)
	return k
}

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
