package sql

import (
	"fmt"
	"strings"

	"hybriddb/internal/value"
)

// Statement is any parsed SQL statement.
type Statement interface{ stmt() }

// NoTop is a statement's Top when it has no TOP clause. TOP 0 is a
// limit of zero rows, as in SQL Server.
const NoTop int64 = -1

// SelectStmt is a SELECT query.
type SelectStmt struct {
	Top     int64 // NoTop = no TOP
	Items   []SelectItem
	From    []TableRef
	Where   Expr // conjunction of WHERE and JOIN ... ON conditions
	GroupBy []Expr
	OrderBy []OrderItem
}

// SelectItem is one output expression.
type SelectItem struct {
	Expr  Expr
	Alias string
	Star  bool // SELECT *
}

// TableRef references a base table with an optional alias.
type TableRef struct {
	Table string
	Alias string
}

// Name returns the reference's effective name (alias or table).
func (t TableRef) Name() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Table
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// InsertStmt is INSERT INTO t VALUES (...), (...).
type InsertStmt struct {
	Table string
	Rows  [][]Expr
}

// SetClause is one SET assignment; AddAssign marks the += / -= forms.
type SetClause struct {
	Col string
	Op  string // "=", "+=", "-="
	Val Expr
}

// UpdateStmt is UPDATE [TOP (n)] t SET ... [WHERE ...].
type UpdateStmt struct {
	Table string
	Top   int64 // NoTop = no TOP
	Sets  []SetClause
	Where Expr
}

// DeleteStmt is DELETE [TOP (n)] FROM t [WHERE ...].
type DeleteStmt struct {
	Table string
	Top   int64 // NoTop = no TOP
	Where Expr
}

// ColDef is one column definition in CREATE TABLE.
type ColDef struct {
	Name string
	Kind value.Kind
}

// CreateTableStmt is CREATE TABLE t (col type, ..., PRIMARY KEY (...)).
type CreateTableStmt struct {
	Table      string
	Cols       []ColDef
	PrimaryKey []string
}

// CreateIndexStmt covers B+ tree and columnstore index DDL:
//
//	CREATE [CLUSTERED|NONCLUSTERED] INDEX name ON t (cols) [INCLUDE (cols)]
//	CREATE CLUSTERED COLUMNSTORE INDEX name ON t
//	CREATE NONCLUSTERED COLUMNSTORE INDEX name ON t (cols)
type CreateIndexStmt struct {
	Name        string
	Table       string
	Clustered   bool
	Columnstore bool
	Cols        []string
	Include     []string
}

// DropIndexStmt is DROP INDEX name ON t.
type DropIndexStmt struct {
	Name  string
	Table string
}

// DropTableStmt is DROP TABLE t.
type DropTableStmt struct {
	Table string
}

// ExplainStmt is EXPLAIN [ANALYZE] <statement>. Plain EXPLAIN renders
// the chosen physical plan; EXPLAIN ANALYZE also executes it and
// annotates each operator with actual rows, batches, bytes read, and
// simulated time.
type ExplainStmt struct {
	Analyze bool
	Stmt    Statement
}

func (*SelectStmt) stmt()      {}
func (*InsertStmt) stmt()      {}
func (*UpdateStmt) stmt()      {}
func (*DeleteStmt) stmt()      {}
func (*CreateTableStmt) stmt() {}
func (*CreateIndexStmt) stmt() {}
func (*DropIndexStmt) stmt()   {}
func (*DropTableStmt) stmt()   {}
func (*ExplainStmt) stmt()     {}

// Expr is any expression node. After binding, column references carry
// their slot in the executor's composite row layout and every node has
// a result kind.
type Expr interface {
	exprNode()
	String() string
}

// ColRef is a (possibly qualified) column reference.
type ColRef struct {
	Table string // qualifier, "" if none
	Name  string
	// Bound by the binder:
	TableIdx int
	Col      int
	Slot     int
	Kind     value.Kind
}

// Lit is a literal value.
type Lit struct {
	Val value.Value
}

// BinOp is a binary operation: arithmetic (+ - * / %), comparison
// (= <> < <= > >=), or logical (AND OR).
type BinOp struct {
	Op   string
	L, R Expr
	// CmpKind is, for a bound comparison, the kind both operands are
	// compared in (see commonKind): a hash join keys both sides in it.
	CmpKind value.Kind
}

// mirrorOp maps each comparison operator to the one that holds with its
// operands swapped.
var mirrorOp = map[string]string{"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}

// AsComparison recognises a column compared with a non-NULL constant:
// col op lit, or lit op col returned mirrored (5 < a reads a > 5; e
// itself is not rewritten). Range inference, kernel pushdown, the
// executor's typed filter and the advisor's candidate columns all
// decide "column versus constant" here.
func AsComparison(e Expr) (col *ColRef, op string, lit *Lit, ok bool) {
	b, _ := e.(*BinOp)
	if b == nil || mirrorOp[b.Op] == "" {
		return nil, "", nil, false
	}
	col, isCol := b.L.(*ColRef)
	lit, isLit := b.R.(*Lit)
	op = b.Op
	if !isCol || !isLit {
		col, isCol = b.R.(*ColRef)
		lit, isLit = b.L.(*Lit)
		op = mirrorOp[b.Op]
	}
	if !isCol || !isLit || lit.Val.IsNull() {
		return nil, "", nil, false
	}
	return col, op, lit, true
}

// UnOp is NOT or unary minus.
type UnOp struct {
	Op string
	E  Expr
}

// Between is e BETWEEN lo AND hi (inclusive).
type Between struct {
	E, Lo, Hi Expr
	Not       bool
}

// IsNull is e IS [NOT] NULL.
type IsNull struct {
	E   Expr
	Not bool
}

// InList is e IN (v1, v2, ...).
type InList struct {
	E    Expr
	List []Expr
	Not  bool
}

// FuncCall is a scalar function call (DATEADD only, currently).
type FuncCall struct {
	Name string
	Args []Expr
}

// AggCall is an aggregate: COUNT(*), COUNT(x), SUM, AVG, MIN, MAX.
type AggCall struct {
	Func     string // upper-case
	Arg      Expr   // nil for COUNT(*)
	Star     bool
	Distinct bool
}

func (*ColRef) exprNode()   {}
func (*Lit) exprNode()      {}
func (*BinOp) exprNode()    {}
func (*UnOp) exprNode()     {}
func (*Between) exprNode()  {}
func (*IsNull) exprNode()   {}
func (*InList) exprNode()   {}
func (*FuncCall) exprNode() {}
func (*AggCall) exprNode()  {}

func (c *ColRef) String() string {
	if c.Table != "" {
		return c.Table + "." + c.Name
	}
	return c.Name
}
func (l *Lit) String() string { return l.Val.String() }
func (b *BinOp) String() string {
	return fmt.Sprintf("(%s %s %s)", b.L, b.Op, b.R)
}
func (u *UnOp) String() string { return fmt.Sprintf("(%s %s)", u.Op, u.E) }
func (b *Between) String() string {
	return fmt.Sprintf("(%s BETWEEN %s AND %s)", b.E, b.Lo, b.Hi)
}
func (n *IsNull) String() string {
	if n.Not {
		return fmt.Sprintf("(%s IS NOT NULL)", n.E)
	}
	return fmt.Sprintf("(%s IS NULL)", n.E)
}
func (n *InList) String() string {
	parts := make([]string, len(n.List))
	for i, e := range n.List {
		parts[i] = e.String()
	}
	return fmt.Sprintf("(%s IN (%s))", n.E, strings.Join(parts, ", "))
}
func (f *FuncCall) String() string {
	parts := make([]string, len(f.Args))
	for i, e := range f.Args {
		parts[i] = e.String()
	}
	return fmt.Sprintf("%s(%s)", f.Name, strings.Join(parts, ", "))
}
func (a *AggCall) String() string {
	if a.Star {
		return a.Func + "(*)"
	}
	return fmt.Sprintf("%s(%s)", a.Func, a.Arg)
}

// Conjuncts splits an expression into its top-level AND components.
func Conjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*BinOp); ok && b.Op == "AND" {
		return append(Conjuncts(b.L), Conjuncts(b.R)...)
	}
	return []Expr{e}
}

// AndAll combines expressions with AND (nil for empty input).
func AndAll(es []Expr) Expr {
	var out Expr
	for _, e := range es {
		if e == nil {
			continue
		}
		if out == nil {
			out = e
		} else {
			out = &BinOp{Op: "AND", L: out, R: e}
		}
	}
	return out
}

// WalkExprs calls fn for every node in the expression tree.
func WalkExprs(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	for _, x := range Operands(e) {
		WalkExprs(x, fn)
	}
}

// Operands returns a fresh slice of e's operand expressions in order:
// nil for a literal, a column or COUNT(*).
func Operands(e Expr) []Expr {
	switch n := e.(type) {
	case *BinOp:
		return []Expr{n.L, n.R}
	case *UnOp:
		return []Expr{n.E}
	case *Between:
		return []Expr{n.E, n.Lo, n.Hi}
	case *IsNull:
		return []Expr{n.E}
	case *InList:
		return append([]Expr{n.E}, n.List...)
	case *FuncCall:
		return append([]Expr(nil), n.Args...)
	case *AggCall:
		if n.Arg != nil {
			return []Expr{n.Arg}
		}
	}
	return nil
}

// WithOperands returns a copy of e whose operands are ops, ordered as
// Operands returns them; every other field is kept.
func WithOperands(e Expr, ops []Expr) Expr {
	switch n := e.(type) {
	case *BinOp:
		c := *n
		c.L, c.R = ops[0], ops[1]
		return &c
	case *UnOp:
		c := *n
		c.E = ops[0]
		return &c
	case *Between:
		c := *n
		c.E, c.Lo, c.Hi = ops[0], ops[1], ops[2]
		return &c
	case *IsNull:
		c := *n
		c.E = ops[0]
		return &c
	case *InList:
		c := *n
		c.E, c.List = ops[0], ops[1:]
		return &c
	case *FuncCall:
		c := *n
		c.Args = ops
		return &c
	case *AggCall:
		c := *n
		if len(ops) == 1 {
			c.Arg = ops[0]
		}
		return &c
	}
	return e
}
