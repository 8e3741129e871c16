package sql

import (
	"strings"
	"testing"

	"hybriddb/internal/value"
)

type fakeCatalog map[string]*value.Schema

func (f fakeCatalog) TableSchema(name string) (*value.Schema, bool) {
	s, ok := f[name]
	return s, ok
}

func testCatalog() fakeCatalog {
	return fakeCatalog{
		"lineitem": value.NewSchema(
			value.Column{Name: "l_orderkey", Kind: value.KindInt},
			value.Column{Name: "l_quantity", Kind: value.KindFloat},
			value.Column{Name: "l_extendedprice", Kind: value.KindFloat},
			value.Column{Name: "l_discount", Kind: value.KindFloat},
			value.Column{Name: "l_shipdate", Kind: value.KindDate},
		),
		"orders": value.NewSchema(
			value.Column{Name: "o_orderkey", Kind: value.KindInt},
			value.Column{Name: "o_custkey", Kind: value.KindInt},
		),
		"t": value.NewSchema(
			value.Column{Name: "col1", Kind: value.KindInt},
			value.Column{Name: "col2", Kind: value.KindInt},
		),
	}
}

func mustSelect(t *testing.T, src string) *BoundSelect {
	t.Helper()
	st, err := ParseOne(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	sel, ok := st.(*SelectStmt)
	if !ok {
		t.Fatalf("not a select: %T", st)
	}
	bound, err := NewBinder(testCatalog()).BindSelect(sel)
	if err != nil {
		t.Fatalf("bind %q: %v", src, err)
	}
	return bound
}

// The paper's micro-benchmark queries Q1, Q2, Q3, Q4, Q5 must all
// parse and bind.
func TestPaperQueries(t *testing.T) {
	q1 := mustSelect(t, "SELECT sum(col1) FROM t WHERE col1 < 1000")
	if !q1.Aggregate || len(q1.Conjuncts) != 1 {
		t.Errorf("Q1: agg=%v conjuncts=%d", q1.Aggregate, len(q1.Conjuncts))
	}
	q2 := mustSelect(t, "SELECT col1, col2 FROM t WHERE col1 < 5 ORDER BY col2")
	if len(q2.OrderBy) != 1 || q2.OrderBy[0].Item != 1 {
		t.Errorf("Q2 order by: %+v", q2.OrderBy)
	}
	q3 := mustSelect(t, "SELECT col1, sum(col2) FROM t GROUP BY col1")
	if !q3.Aggregate || len(q3.GroupBy) != 1 || q3.GroupBy[0].Col != 0 {
		t.Errorf("Q3: %+v", q3.GroupBy)
	}
	st, err := ParseOne("UPDATE top (10) lineitem SET l_quantity += 1, l_extendedprice += 0.01 WHERE l_shipdate = '1998-09-02'")
	if err != nil {
		t.Fatalf("Q4 parse: %v", err)
	}
	up, err := NewBinder(testCatalog()).BindUpdate(st.(*UpdateStmt))
	if err != nil {
		t.Fatalf("Q4 bind: %v", err)
	}
	if up.Top != 10 || len(up.SetCols) != 2 {
		t.Errorf("Q4: top=%d sets=%d", up.Top, len(up.SetCols))
	}
	// += expands to col + val.
	if b, ok := up.SetExprs[0].(*BinOp); !ok || b.Op != "+" {
		t.Errorf("Q4 += expansion: %s", up.SetExprs[0])
	}
	// Date literal coerced in WHERE.
	if len(up.Conjuncts) != 1 {
		t.Fatalf("Q4 conjuncts: %d", len(up.Conjuncts))
	}
	cmp := up.Conjuncts[0].(*BinOp)
	if lit, ok := cmp.R.(*Lit); !ok || lit.Val.Kind() != value.KindDate {
		t.Errorf("Q4 date coercion failed: %s", cmp.R)
	}
	q5 := mustSelect(t, `SELECT sum(l_quantity) sum_quantity,
		sum(l_extendedprice * (1-l_discount))
		FROM lineitem WHERE l_shipdate between '1998-09-02' and DATEADD(day, 1, '1998-09-02')`)
	if len(q5.Items) != 2 || q5.Items[0].Alias != "sum_quantity" {
		t.Errorf("Q5 items: %+v", q5.Items)
	}
	bt := q5.Conjuncts[0].(*Between)
	if lit, ok := bt.Lo.(*Lit); !ok || lit.Val.Kind() != value.KindDate {
		t.Errorf("Q5 between lo: %s", bt.Lo)
	}
}

func TestParseJoins(t *testing.T) {
	b := mustSelect(t, `SELECT o_custkey, sum(l_quantity) FROM lineitem
		JOIN orders ON l_orderkey = o_orderkey WHERE l_discount < 0.05 GROUP BY o_custkey`)
	if len(b.Tables) != 2 {
		t.Fatalf("tables = %d", len(b.Tables))
	}
	if len(b.Conjuncts) != 2 {
		t.Fatalf("conjuncts = %d", len(b.Conjuncts))
	}
	// Slot layout: lineitem cols 0-4, orders cols 5-6.
	if b.Tables[1].Offset != 5 {
		t.Errorf("orders offset = %d", b.Tables[1].Offset)
	}
	// Comma joins too.
	b2 := mustSelect(t, "SELECT count(*) FROM lineitem l, orders o WHERE l.l_orderkey = o.o_orderkey")
	if len(b2.Tables) != 2 || len(b2.Conjuncts) != 1 {
		t.Errorf("comma join: tables=%d conj=%d", len(b2.Tables), len(b2.Conjuncts))
	}
}

func TestStarExpansion(t *testing.T) {
	b := mustSelect(t, "SELECT * FROM t")
	if len(b.Items) != 2 || b.Items[0].Alias != "col1" || b.Items[1].Alias != "col2" {
		t.Errorf("star expansion: %+v", b.Items)
	}
}

func TestSelectTop(t *testing.T) {
	b := mustSelect(t, "SELECT TOP 5 col1 FROM t ORDER BY col1 DESC")
	if b.Stmt.Top != 5 {
		t.Errorf("top = %d", b.Stmt.Top)
	}
	if !b.OrderBy[0].Desc {
		t.Error("desc lost")
	}
}

func TestBindErrors(t *testing.T) {
	bad := []string{
		"SELECT nope FROM t",
		"SELECT col1 FROM missing",
		"SELECT col1, sum(col2) FROM t",                     // col1 not grouped
		"SELECT sum(col1) FROM t WHERE sum(col1) > 5",       // agg in where
		"SELECT l_orderkey FROM lineitem, orders, lineitem", // dup table
	}
	bnd := NewBinder(testCatalog())
	for _, src := range bad {
		st, err := ParseOne(src)
		if err != nil {
			continue // parse error also acceptable
		}
		if _, err := bnd.BindSelect(st.(*SelectStmt)); err == nil {
			t.Errorf("bind %q should fail", src)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT col1 WHERE",
		"FROB x",
		"SELECT col1 FROM t WHERE col1 <",
		"INSERT INTO t VALUES (1",
		"SELECT 'unterminated FROM t",
		"SELECT col1 FROM t HAVING col1 > 1",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("parse %q should fail", src)
		}
	}
}

func TestInsertBinding(t *testing.T) {
	st, err := ParseOne("INSERT INTO t VALUES (1, 2), (3, 4)")
	if err != nil {
		t.Fatal(err)
	}
	ins, err := NewBinder(testCatalog()).BindInsert(st.(*InsertStmt))
	if err != nil {
		t.Fatal(err)
	}
	if len(ins.Rows) != 2 || ins.Rows[1][1].Int() != 4 {
		t.Errorf("rows: %v", ins.Rows)
	}
	// Arity mismatch.
	st, _ = ParseOne("INSERT INTO t VALUES (1)")
	if _, err := NewBinder(testCatalog()).BindInsert(st.(*InsertStmt)); err == nil {
		t.Error("arity mismatch accepted")
	}
}

func TestDeleteBinding(t *testing.T) {
	st, err := ParseOne("DELETE TOP 3 FROM t WHERE col1 = 9")
	if err != nil {
		t.Fatal(err)
	}
	del, err := NewBinder(testCatalog()).BindDelete(st.(*DeleteStmt))
	if err != nil {
		t.Fatal(err)
	}
	if del.Top != 3 || len(del.Conjuncts) != 1 {
		t.Errorf("delete: %+v", del)
	}
}

func TestDDLParsing(t *testing.T) {
	st, err := ParseOne(`CREATE TABLE foo (a BIGINT, b VARCHAR(20), c DATE, d DOUBLE, e BOOLEAN, PRIMARY KEY (a))`)
	if err != nil {
		t.Fatal(err)
	}
	ct := st.(*CreateTableStmt)
	if len(ct.Cols) != 5 || ct.Cols[1].Kind != value.KindString || ct.PrimaryKey[0] != "a" {
		t.Errorf("create table: %+v", ct)
	}

	st, err = ParseOne("CREATE NONCLUSTERED INDEX ix1 ON t (col1) INCLUDE (col2)")
	if err != nil {
		t.Fatal(err)
	}
	ci := st.(*CreateIndexStmt)
	if ci.Clustered || ci.Columnstore || ci.Cols[0] != "col1" || ci.Include[0] != "col2" {
		t.Errorf("create index: %+v", ci)
	}

	st, err = ParseOne("CREATE CLUSTERED COLUMNSTORE INDEX cci ON t")
	if err != nil {
		t.Fatal(err)
	}
	ci = st.(*CreateIndexStmt)
	if !ci.Clustered || !ci.Columnstore || len(ci.Cols) != 0 {
		t.Errorf("create cci: %+v", ci)
	}

	st, err = ParseOne("DROP INDEX ix1 ON t")
	if err != nil {
		t.Fatal(err)
	}
	if di := st.(*DropIndexStmt); di.Name != "ix1" || di.Table != "t" {
		t.Errorf("drop: %+v", di)
	}
}

func TestConjunctsAndAndAll(t *testing.T) {
	e := AndAll([]Expr{
		&BinOp{Op: "<", L: &Lit{value.NewInt(1)}, R: &Lit{value.NewInt(2)}},
		&BinOp{Op: ">", L: &Lit{value.NewInt(3)}, R: &Lit{value.NewInt(2)}},
		nil,
	})
	cs := Conjuncts(e)
	if len(cs) != 2 {
		t.Errorf("conjuncts = %d", len(cs))
	}
	if AndAll(nil) != nil {
		t.Error("AndAll(nil) should be nil")
	}
	if Conjuncts(nil) != nil {
		t.Error("Conjuncts(nil) should be nil")
	}
}

func TestLexerEdgeCases(t *testing.T) {
	toks, err := lex("SELECT 'it''s' -- comment\n , 1.5")
	if err != nil {
		t.Fatal(err)
	}
	var strTok, numTok string
	for _, tk := range toks {
		if tk.kind == tokString {
			strTok = tk.text
		}
		if tk.kind == tokNumber {
			numTok = tk.text
		}
	}
	if strTok != "it's" {
		t.Errorf("escaped quote: %q", strTok)
	}
	if numTok != "1.5" {
		t.Errorf("float: %q", numTok)
	}
	if _, err := lex("SELECT @"); err == nil {
		t.Error("bad char accepted")
	}
	if _, err := lex("SELECT 1.2.3"); err == nil {
		t.Error("double-dot number accepted")
	}
}

func TestMultipleStatements(t *testing.T) {
	stmts, err := Parse("SELECT col1 FROM t; DELETE FROM t WHERE col1 = 1;")
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 2 {
		t.Fatalf("statements = %d", len(stmts))
	}
}

func TestExprStrings(t *testing.T) {
	src := "SELECT count(*), sum(col1), col2 FROM t WHERE col1 IN (1, 2) AND col2 IS NOT NULL GROUP BY col2"
	b := mustSelect(t, src)
	for _, it := range b.Items {
		if it.Expr.String() == "" {
			t.Error("empty String()")
		}
	}
	w := AndAll(b.Conjuncts).String()
	if !strings.Contains(w, "IN") || !strings.Contains(w, "IS NOT NULL") {
		t.Errorf("where rendering: %s", w)
	}
}
