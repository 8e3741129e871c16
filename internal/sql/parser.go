package sql

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"hybriddb/internal/value"
)

type parser struct {
	toks []token
	pos  int
}

// Parse parses one or more semicolon-separated statements.
func Parse(src string) ([]Statement, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var stmts []Statement
	for !p.at(tokEOF, "") {
		if p.accept(tokPunct, ";") {
			continue
		}
		s, err := p.statement()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
	}
	if len(stmts) == 0 {
		return nil, fmt.Errorf("sql: empty input")
	}
	return stmts, nil
}

// ParseOne parses exactly one statement.
func ParseOne(src string) (Statement, error) {
	stmts, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if len(stmts) != 1 {
		return nil, fmt.Errorf("sql: expected one statement, got %d", len(stmts))
	}
	return stmts[0], nil
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) at(kind tokenKind, text string) bool {
	t := p.cur()
	return t.kind == kind && (text == "" || t.text == text)
}

func (p *parser) accept(kind tokenKind, text string) bool {
	if p.at(kind, text) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(kind tokenKind, text string) (token, error) {
	if p.at(kind, text) {
		return p.next(), nil
	}
	t := p.cur()
	return t, fmt.Errorf("sql: expected %q, found %q at offset %d", text, t.text, t.pos)
}

func (p *parser) expectIdent() (string, error) {
	if p.cur().kind == tokIdent {
		return p.next().text, nil
	}
	// Allow non-reserved-ish keywords as identifiers where unambiguous.
	t := p.cur()
	return "", fmt.Errorf("sql: expected identifier, found %q at offset %d", t.text, t.pos)
}

// parenList parses "(item, item, ...)" with one or more items.
func parenList[T any](p *parser, item func() (T, error)) ([]T, error) {
	if _, err := p.expect(tokPunct, "("); err != nil {
		return nil, err
	}
	var out []T
	for {
		x, err := item()
		if err != nil {
			return nil, err
		}
		out = append(out, x)
		if !p.accept(tokPunct, ",") {
			break
		}
	}
	_, err := p.expect(tokPunct, ")")
	return out, err
}

func (p *parser) statement() (Statement, error) {
	switch {
	case p.at(tokKeyword, "SELECT"):
		return p.selectStmt()
	case p.at(tokKeyword, "INSERT"):
		return p.insertStmt()
	case p.at(tokKeyword, "UPDATE"):
		return p.updateStmt()
	case p.at(tokKeyword, "DELETE"):
		return p.deleteStmt()
	case p.at(tokKeyword, "CREATE"):
		return p.createStmt()
	case p.at(tokKeyword, "DROP"):
		return p.dropStmt()
	case p.at(tokKeyword, "EXPLAIN"):
		return p.explainStmt()
	}
	t := p.cur()
	return nil, fmt.Errorf("sql: unexpected %q at offset %d", t.text, t.pos)
}

func (p *parser) explainStmt() (Statement, error) {
	if _, err := p.expect(tokKeyword, "EXPLAIN"); err != nil {
		return nil, err
	}
	analyze := p.accept(tokKeyword, "ANALYZE")
	if p.at(tokKeyword, "EXPLAIN") {
		t := p.cur()
		return nil, fmt.Errorf("sql: cannot nest EXPLAIN at offset %d", t.pos)
	}
	inner, err := p.statement()
	if err != nil {
		return nil, err
	}
	return &ExplainStmt{Analyze: analyze, Stmt: inner}, nil
}

func (p *parser) topClause() (int64, error) {
	if !p.accept(tokKeyword, "TOP") {
		return NoTop, nil
	}
	paren := p.accept(tokPunct, "(")
	t, err := p.expectNumber()
	if err != nil {
		return 0, err
	}
	n, err := strconv.ParseInt(t, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("sql: bad TOP count %q", t)
	}
	if paren {
		if _, err := p.expect(tokPunct, ")"); err != nil {
			return 0, err
		}
	}
	return n, nil
}

func (p *parser) expectNumber() (string, error) {
	if p.cur().kind == tokNumber {
		return p.next().text, nil
	}
	t := p.cur()
	return "", fmt.Errorf("sql: expected number, found %q at offset %d", t.text, t.pos)
}

func (p *parser) selectStmt() (Statement, error) {
	p.next() // SELECT
	s := &SelectStmt{}
	var err error
	if s.Top, err = p.topClause(); err != nil {
		return nil, err
	}
	// Select list.
	for {
		if p.accept(tokPunct, "*") {
			s.Items = append(s.Items, SelectItem{Star: true})
		} else {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			item := SelectItem{Expr: e}
			if p.accept(tokKeyword, "AS") {
				if item.Alias, err = p.expectIdent(); err != nil {
					return nil, err
				}
			} else if p.cur().kind == tokIdent {
				item.Alias = p.next().text
			}
			s.Items = append(s.Items, item)
		}
		if !p.accept(tokPunct, ",") {
			break
		}
	}
	if _, err := p.expect(tokKeyword, "FROM"); err != nil {
		return nil, err
	}
	var joinConds []Expr
	for {
		ref, err := p.tableRef()
		if err != nil {
			return nil, err
		}
		s.From = append(s.From, ref)
		if p.accept(tokPunct, ",") {
			continue
		}
		if p.accept(tokKeyword, "INNER") {
			if _, err := p.expect(tokKeyword, "JOIN"); err != nil {
				return nil, err
			}
		} else if !p.accept(tokKeyword, "JOIN") {
			break
		}
		ref2, err := p.tableRef()
		if err != nil {
			return nil, err
		}
		s.From = append(s.From, ref2)
		if _, err := p.expect(tokKeyword, "ON"); err != nil {
			return nil, err
		}
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		joinConds = append(joinConds, cond)
		// Allow further JOIN / comma continuations.
		for p.accept(tokKeyword, "JOIN") || (p.accept(tokKeyword, "INNER") && p.accept(tokKeyword, "JOIN")) {
			ref3, err := p.tableRef()
			if err != nil {
				return nil, err
			}
			s.From = append(s.From, ref3)
			if _, err := p.expect(tokKeyword, "ON"); err != nil {
				return nil, err
			}
			cond3, err := p.expr()
			if err != nil {
				return nil, err
			}
			joinConds = append(joinConds, cond3)
		}
		break
	}
	if p.accept(tokKeyword, "WHERE") {
		w, err := p.expr()
		if err != nil {
			return nil, err
		}
		joinConds = append(joinConds, w)
	}
	s.Where = AndAll(joinConds)
	if p.accept(tokKeyword, "GROUP") {
		if _, err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			s.GroupBy = append(s.GroupBy, e)
			if !p.accept(tokPunct, ",") {
				break
			}
		}
	}
	if p.accept(tokKeyword, "HAVING") {
		return nil, fmt.Errorf("sql: HAVING is not supported")
	}
	if p.accept(tokKeyword, "ORDER") {
		if _, err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.accept(tokKeyword, "DESC") {
				item.Desc = true
			} else {
				p.accept(tokKeyword, "ASC")
			}
			s.OrderBy = append(s.OrderBy, item)
			if !p.accept(tokPunct, ",") {
				break
			}
		}
	}
	return s, nil
}

func (p *parser) tableRef() (TableRef, error) {
	name, err := p.expectIdent()
	if err != nil {
		return TableRef{}, err
	}
	ref := TableRef{Table: name}
	if p.accept(tokKeyword, "AS") {
		if ref.Alias, err = p.expectIdent(); err != nil {
			return TableRef{}, err
		}
	} else if p.cur().kind == tokIdent {
		ref.Alias = p.next().text
	}
	return ref, nil
}

func (p *parser) insertStmt() (Statement, error) {
	p.next() // INSERT
	if _, err := p.expect(tokKeyword, "INTO"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokKeyword, "VALUES"); err != nil {
		return nil, err
	}
	s := &InsertStmt{Table: table}
	for {
		row, err := parenList(p, p.expr)
		if err != nil {
			return nil, err
		}
		s.Rows = append(s.Rows, row)
		if !p.accept(tokPunct, ",") {
			break
		}
	}
	return s, nil
}

func (p *parser) updateStmt() (Statement, error) {
	p.next() // UPDATE
	s := &UpdateStmt{}
	var err error
	if s.Top, err = p.topClause(); err != nil {
		return nil, err
	}
	if s.Table, err = p.expectIdent(); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokKeyword, "SET"); err != nil {
		return nil, err
	}
	for {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		op := "="
		switch {
		case p.accept(tokPunct, "="):
		case p.accept(tokPunct, "+="):
			op = "+="
		case p.accept(tokPunct, "-="):
			op = "-="
		default:
			t := p.cur()
			return nil, fmt.Errorf("sql: expected assignment, found %q at offset %d", t.text, t.pos)
		}
		val, err := p.expr()
		if err != nil {
			return nil, err
		}
		s.Sets = append(s.Sets, SetClause{Col: col, Op: op, Val: val})
		if !p.accept(tokPunct, ",") {
			break
		}
	}
	if p.accept(tokKeyword, "WHERE") {
		if s.Where, err = p.expr(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (p *parser) deleteStmt() (Statement, error) {
	p.next() // DELETE
	s := &DeleteStmt{}
	var err error
	if s.Top, err = p.topClause(); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokKeyword, "FROM"); err != nil {
		return nil, err
	}
	if s.Table, err = p.expectIdent(); err != nil {
		return nil, err
	}
	if p.accept(tokKeyword, "WHERE") {
		if s.Where, err = p.expr(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (p *parser) createStmt() (Statement, error) {
	p.next() // CREATE
	switch {
	case p.accept(tokKeyword, "TABLE"):
		return p.createTable()
	default:
		return p.createIndex()
	}
}

func (p *parser) createTable() (Statement, error) {
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokPunct, "("); err != nil {
		return nil, err
	}
	s := &CreateTableStmt{Table: name}
	for {
		if p.accept(tokKeyword, "PRIMARY") {
			if _, err := p.expect(tokKeyword, "KEY"); err != nil {
				return nil, err
			}
			var err error
			if s.PrimaryKey, err = parenList(p, p.expectIdent); err != nil {
				return nil, err
			}
		} else {
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			kind, err := p.typeName()
			if err != nil {
				return nil, err
			}
			s.Cols = append(s.Cols, ColDef{Name: col, Kind: kind})
		}
		if !p.accept(tokPunct, ",") {
			break
		}
	}
	if _, err := p.expect(tokPunct, ")"); err != nil {
		return nil, err
	}
	return s, nil
}

func (p *parser) typeName() (value.Kind, error) {
	t := p.cur()
	if t.kind != tokKeyword {
		return 0, fmt.Errorf("sql: expected type, found %q at offset %d", t.text, t.pos)
	}
	p.next()
	switch t.text {
	case "BIGINT", "INT", "INTEGER":
		return value.KindInt, nil
	case "DOUBLE", "FLOAT":
		return value.KindFloat, nil
	case "VARCHAR":
		// Optional (n).
		if p.accept(tokPunct, "(") {
			if _, err := p.expectNumber(); err != nil {
				return 0, err
			}
			if _, err := p.expect(tokPunct, ")"); err != nil {
				return 0, err
			}
		}
		return value.KindString, nil
	case "DATE":
		return value.KindDate, nil
	case "BOOLEAN":
		return value.KindBool, nil
	}
	return 0, fmt.Errorf("sql: unknown type %q at offset %d", t.text, t.pos)
}

func (p *parser) createIndex() (Statement, error) {
	s := &CreateIndexStmt{}
	for {
		switch {
		case p.accept(tokKeyword, "CLUSTERED"):
			s.Clustered = true
			continue
		case p.accept(tokKeyword, "NONCLUSTERED"):
			s.Clustered = false
			continue
		case p.accept(tokKeyword, "COLUMNSTORE"):
			s.Columnstore = true
			continue
		}
		break
	}
	if _, err := p.expect(tokKeyword, "INDEX"); err != nil {
		return nil, err
	}
	var err error
	if s.Name, err = p.expectIdent(); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokKeyword, "ON"); err != nil {
		return nil, err
	}
	if s.Table, err = p.expectIdent(); err != nil {
		return nil, err
	}
	if p.at(tokPunct, "(") {
		if s.Cols, err = parenList(p, p.expectIdent); err != nil {
			return nil, err
		}
	}
	if p.accept(tokKeyword, "INCLUDE") {
		if s.Include, err = parenList(p, p.expectIdent); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (p *parser) dropStmt() (Statement, error) {
	p.next() // DROP
	if p.accept(tokKeyword, "TABLE") {
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		return &DropTableStmt{Table: name}, nil
	}
	if _, err := p.expect(tokKeyword, "INDEX"); err != nil {
		return nil, err
	}
	s := &DropIndexStmt{}
	var err error
	if s.Name, err = p.expectIdent(); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokKeyword, "ON"); err != nil {
		return nil, err
	}
	if s.Table, err = p.expectIdent(); err != nil {
		return nil, err
	}
	return s, nil
}

// Expression grammar, lowest to highest precedence:
// OR, AND, NOT, comparison/BETWEEN/IS/IN, + -, * / %, unary, primary.
// Expression precedence, loosest first: OR, AND, NOT, comparison,
// + and -, * / and %, unary minus, primary.
func (p *parser) expr() (Expr, error) { return p.chain(tokKeyword, []string{"OR"}, p.andExpr) }

func (p *parser) andExpr() (Expr, error) { return p.chain(tokKeyword, []string{"AND"}, p.notExpr) }

func (p *parser) notExpr() (Expr, error) { return p.prefix(tokKeyword, "NOT", p.notExpr, p.cmpExpr) }

func (p *parser) addExpr() (Expr, error) { return p.chain(tokPunct, []string{"+", "-"}, p.mulExpr) }

func (p *parser) mulExpr() (Expr, error) {
	return p.chain(tokPunct, []string{"*", "/", "%"}, p.unaryExpr)
}

func (p *parser) unaryExpr() (Expr, error) { return p.prefix(tokPunct, "-", p.unaryExpr, p.primary) }

// chain parses a left-associative run of operands, parsed by next,
// joined by any of ops.
func (p *parser) chain(kind tokenKind, ops []string, next func() (Expr, error)) (Expr, error) {
	l, err := next()
	for err == nil {
		op := ""
		for _, o := range ops {
			if p.accept(kind, o) {
				op = o
				break
			}
		}
		if op == "" {
			return l, nil
		}
		var r Expr
		r, err = next()
		l = &BinOp{Op: op, L: l, R: r}
	}
	return nil, err
}

// prefix parses op applied to an operand parsed by self, or else an
// operand parsed by next.
func (p *parser) prefix(kind tokenKind, op string, self, next func() (Expr, error)) (Expr, error) {
	if !p.accept(kind, op) {
		return next()
	}
	e, err := self()
	if err != nil {
		return nil, err
	}
	return &UnOp{Op: op, E: e}, nil
}

func (p *parser) cmpExpr() (Expr, error) {
	l, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	not := p.accept(tokKeyword, "NOT")
	switch {
	case p.accept(tokKeyword, "BETWEEN"):
		lo, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokKeyword, "AND"); err != nil {
			return nil, err
		}
		hi, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		return &Between{E: l, Lo: lo, Hi: hi, Not: not}, nil
	case p.accept(tokKeyword, "IN"):
		list, err := parenList(p, p.expr)
		if err != nil {
			return nil, err
		}
		return &InList{E: l, List: list, Not: not}, nil
	case p.accept(tokKeyword, "IS"):
		n := p.accept(tokKeyword, "NOT")
		if _, err := p.expect(tokKeyword, "NULL"); err != nil {
			return nil, err
		}
		return &IsNull{E: l, Not: n}, nil
	}
	if not {
		t := p.cur()
		return nil, fmt.Errorf("sql: dangling NOT at offset %d", t.pos)
	}
	for _, op := range []string{"<=", ">=", "<>", "!=", "=", "<", ">"} {
		if p.accept(tokPunct, op) {
			r, err := p.addExpr()
			if err != nil {
				return nil, err
			}
			if op == "!=" {
				op = "<>"
			}
			return &BinOp{Op: op, L: l, R: r}, nil
		}
	}
	return l, nil
}

var aggFuncs = map[string]bool{"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true}

func (p *parser) primary() (Expr, error) {
	t := p.cur()
	switch t.kind {
	case tokNumber:
		p.next()
		if strings.Contains(t.text, ".") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, fmt.Errorf("sql: bad number %q", t.text)
			}
			return &Lit{Val: value.NewFloat(f)}, nil
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("sql: bad number %q", t.text)
		}
		return &Lit{Val: value.NewInt(n)}, nil
	case tokString:
		p.next()
		return &Lit{Val: value.NewString(t.text)}, nil
	case tokKeyword:
		switch t.text {
		case "NULL":
			p.next()
			return &Lit{Val: value.Null}, nil
		case "TRUE":
			p.next()
			return &Lit{Val: value.NewBool(true)}, nil
		case "FALSE":
			p.next()
			return &Lit{Val: value.NewBool(false)}, nil
		case "DATE":
			// DATE 'YYYY-MM-DD' literal.
			p.next()
			if p.cur().kind != tokString {
				return nil, fmt.Errorf("sql: DATE requires a string literal at offset %d", p.cur().pos)
			}
			s := p.next().text
			d, err := ParseDate(s)
			if err != nil {
				return nil, err
			}
			return &Lit{Val: d}, nil
		case "DATEADD":
			p.next()
			if _, err := p.expect(tokPunct, "("); err != nil {
				return nil, err
			}
			unit := p.cur()
			if unit.kind != tokKeyword || (unit.text != "DAY" && unit.text != "MONTH" && unit.text != "YEAR") {
				return nil, fmt.Errorf("sql: DATEADD unit must be DAY/MONTH/YEAR at offset %d", unit.pos)
			}
			p.next()
			if _, err := p.expect(tokPunct, ","); err != nil {
				return nil, err
			}
			n, err := p.expr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokPunct, ","); err != nil {
				return nil, err
			}
			d, err := p.expr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokPunct, ")"); err != nil {
				return nil, err
			}
			return &FuncCall{Name: "DATEADD_" + unit.text, Args: []Expr{n, d}}, nil
		}
		if aggFuncs[t.text] {
			p.next()
			if _, err := p.expect(tokPunct, "("); err != nil {
				return nil, err
			}
			agg := &AggCall{Func: t.text}
			if t.text == "COUNT" && p.accept(tokPunct, "*") {
				agg.Star = true
			} else {
				agg.Distinct = p.accept(tokKeyword, "DISTINCT")
				arg, err := p.expr()
				if err != nil {
					return nil, err
				}
				agg.Arg = arg
			}
			if _, err := p.expect(tokPunct, ")"); err != nil {
				return nil, err
			}
			return agg, nil
		}
		return nil, fmt.Errorf("sql: unexpected keyword %q at offset %d", t.text, t.pos)
	case tokIdent:
		p.next()
		if p.accept(tokPunct, ".") {
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			return &ColRef{Table: t.text, Name: col}, nil
		}
		return &ColRef{Name: t.text}, nil
	case tokPunct:
		if t.text == "(" {
			p.next()
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokPunct, ")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, fmt.Errorf("sql: unexpected %q at offset %d", t.text, t.pos)
}

// ParseDate converts a 'YYYY-MM-DD' string to a DATE value.
func ParseDate(s string) (value.Value, error) {
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		return value.Null, fmt.Errorf("sql: bad date %q", s)
	}
	return value.DateFromTime(t), nil
}
