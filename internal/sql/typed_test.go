package sql

import (
	"fmt"
	"strings"
	"testing"

	"hybriddb/internal/value"
)

// probeCatalog is the five-kind table the typed-bind probe and the
// fuzzer run over, plus a second table for column-versus-column joins.
func probeCatalog() fakeCatalog {
	return fakeCatalog{
		"t": value.NewSchema(
			value.Column{Name: "a", Kind: value.KindInt},
			value.Column{Name: "b", Kind: value.KindInt},
			value.Column{Name: "f", Kind: value.KindFloat},
			value.Column{Name: "s", Kind: value.KindString},
			value.Column{Name: "d", Kind: value.KindDate},
		),
		"u": value.NewSchema(
			value.Column{Name: "g", Kind: value.KindFloat},
			value.Column{Name: "k", Kind: value.KindInt},
		),
	}
}

// bindStmt parses and binds one statement of any DML kind.
func bindStmt(src string) error {
	st, err := ParseOne(src)
	if err != nil {
		return err
	}
	b := NewBinder(probeCatalog())
	switch s := st.(type) {
	case *SelectStmt:
		_, err = b.BindSelect(s)
	case *InsertStmt:
		_, err = b.BindInsert(s)
	case *UpdateStmt:
		_, err = b.BindUpdate(s)
	case *DeleteStmt:
		_, err = b.BindDelete(s)
	default:
		err = fmt.Errorf("unexpected %T", st)
	}
	return err
}

// TestTypedBind runs the ill-typed probe: before the binder typed every
// node, each of these panicked in an operator, returned an answer over
// values of the wrong kind, or stored one. Each must now fail at bind
// with a message naming a kind.
func TestTypedBind(t *testing.T) {
	bad := []string{
		"SELECT a + s FROM t",
		"SELECT s * 2 FROM t",
		"SELECT a / s FROM t",
		"SELECT a % f FROM t",
		"SELECT a % 2.5 FROM t",
		"SELECT -s FROM t",
		"SELECT d + 1 FROM t",
		"SELECT SUM(s) FROM t",
		"SELECT AVG(s) FROM t",
		"SELECT SUM(d) FROM t",
		"SELECT SUM(a = b) FROM t",
		"SELECT MIN(a + s) FROM t",
		"SELECT DATEADD(day, 1, a) FROM t",
		"SELECT DATEADD(day, s, d) FROM t",
		"SELECT DATEADD(month, 1, s) FROM t",
		"SELECT a FROM t WHERE NOT a",
		"SELECT a FROM t WHERE a AND b",
		"SELECT a FROM t WHERE a OR b = 1",
		"SELECT a FROM t WHERE a",
		"SELECT a FROM t WHERE s",
		"SELECT a FROM t WHERE a = s",
		"SELECT a FROM t WHERE d < s",
		"SELECT a FROM t WHERE (a = 1) = s",
		"SELECT a FROM t WHERE s IN (1, 2)",
		"SELECT a FROM t WHERE s BETWEEN 1 AND 5",
		"SELECT a FROM t ORDER BY s + 1",
		"DELETE FROM t WHERE s + 1 > 0",
		"UPDATE t SET s = a + 1 WHERE a = 3",
		"UPDATE t SET b = s",
		"UPDATE t SET a = f",
		"UPDATE t SET s += 1",
		"INSERT INTO t VALUES (1.5, 2, 3.0, 'x', '1998-01-01')",
		"INSERT INTO t VALUES (1 + 'x', 2, 3.0, 'x', '1998-01-01')",
	}
	for _, src := range bad {
		err := bindStmt(src)
		if err == nil {
			t.Errorf("%s: bound", src)
			continue
		}
		named := false
		for _, k := range []string{"BIGINT", "DOUBLE", "VARCHAR", "DATE", "BOOLEAN"} {
			named = named || strings.Contains(err.Error(), k)
		}
		if !named || strings.Contains(err.Error(), "panic") {
			t.Errorf("%s: %v (want a bind error naming the kinds)", src, err)
		}
	}
	for _, src := range []string{
		"SELECT a + f, a * 2, f / 2, a % 3, -f, -a FROM t",
		"SELECT SUM(a), AVG(f), MIN(s), MAX(d), COUNT(s) FROM t",
		"SELECT a FROM t WHERE a = f AND d >= 10 AND a < 2.5 AND NOT (s = 'x')",
		"SELECT a FROM t WHERE d BETWEEN '1998-01-01' AND DATEADD(year, 1, '1998-01-01')",
		"SELECT a FROM t WHERE a IN (1, 2.0, NULL) AND s IS NULL AND NULL",
		"SELECT COUNT(*) FROM t, u WHERE t.a = u.g AND t.f = u.k",
		"UPDATE t SET f = a, b = b + 1, d = '1998-01-02', s = NULL, f += 1",
		"INSERT INTO t VALUES (2.0, -1, 3, 'x', '1998-01-01')",
	} {
		if err := bindStmt(src); err != nil {
			t.Errorf("%s: %v", src, err)
		}
	}
}

// compileCase is one expression and the value its compiled closure must
// return over testRow.
type compileCase struct {
	e    Expr
	want value.Value
}

var testRow = value.Row{value.NewInt(10), value.NewFloat(2.5), value.NewString("abc"), value.Null}

func col(slot int, k value.Kind) *ColRef { return &ColRef{Slot: slot, Kind: k} }
func lit(v value.Value) *Lit             { return &Lit{Val: v} }
func ilit(v int64) *Lit                  { return lit(value.NewInt(v)) }

// checkCompiled runs each case through Compile and CompilePred: the value
// must match in kind and content, and the predicate must hold exactly when
// the value is TRUE.
func checkCompiled(t *testing.T, cases []compileCase) {
	t.Helper()
	for n, c := range cases {
		got := Compile(c.e)(testRow)
		if got.Kind() != c.want.Kind() || value.Compare(got, c.want) != 0 {
			t.Errorf("case %d (%s): got %v, want %v", n, c.e, got, c.want)
		}
		if CompilePred(c.e)(testRow) != (c.want.Kind() == value.KindBool && c.want.Bool()) {
			t.Errorf("case %d (%s): predicate disagrees with %v", n, c.e, got)
		}
	}
}

// TestEvalExpressions pins arithmetic, comparison, boolean and function
// evaluation of the compiled evaluator.
func TestEvalExpressions(t *testing.T) {
	a := col(0, value.KindInt)
	checkCompiled(t, []compileCase{
		{&BinOp{Op: "+", L: a, R: ilit(5)}, value.NewInt(15)},
		{&BinOp{Op: "*", L: col(1, value.KindFloat), R: ilit(2)}, value.NewFloat(5)},
		{&BinOp{Op: "<", L: a, R: ilit(11)}, value.NewBool(true)},
		{&BinOp{Op: "=", L: col(2, value.KindString), R: lit(value.NewString("abc"))}, value.NewBool(true)},
		{&BinOp{Op: "AND", L: lit(value.NewBool(true)), R: lit(value.NewBool(false))}, value.NewBool(false)},
		{&BinOp{Op: "OR", L: lit(value.NewBool(false)), R: lit(value.NewBool(true))}, value.NewBool(true)},
		{&BinOp{Op: "%", L: a, R: ilit(3)}, value.NewInt(1)},
		{&UnOp{Op: "NOT", E: lit(value.NewBool(true))}, value.NewBool(false)},
		{&UnOp{Op: "-", E: a}, value.NewInt(-10)},
		{&Between{E: a, Lo: ilit(5), Hi: ilit(10)}, value.NewBool(true)},
		{&Between{E: a, Lo: ilit(5), Hi: ilit(9), Not: true}, value.NewBool(true)},
		{&IsNull{E: col(3, value.KindInt)}, value.NewBool(true)},
		{&IsNull{E: a, Not: true}, value.NewBool(true)},
		{&InList{E: a, List: []Expr{ilit(9), ilit(10)}}, value.NewBool(true)},
		{&BinOp{Op: "=", L: col(3, value.KindInt), R: ilit(1)}, value.Null},
		{&FuncCall{Name: "DATEADD_DAY", Args: []Expr{ilit(3), lit(value.NewDate(100))}}, value.NewDate(103)},
	})
}

// TestThreeValuedLogic pins NULL through AND, OR and NOT, and that a
// predicate holds only on TRUE.
func TestThreeValuedLogic(t *testing.T) {
	null, tru, fls := lit(value.Null), lit(value.NewBool(true)), lit(value.NewBool(false))
	checkCompiled(t, []compileCase{
		{&BinOp{Op: "AND", L: null, R: fls}, value.NewBool(false)},
		{&BinOp{Op: "AND", L: null, R: tru}, value.Null},
		{&BinOp{Op: "OR", L: null, R: tru}, value.NewBool(true)},
		{&BinOp{Op: "OR", L: null, R: fls}, value.Null},
		{&UnOp{Op: "NOT", E: null}, value.Null},
	})
	if CompilePred(null)(testRow) || !CompilePred(tru)(testRow) || CompilePred(fls)(testRow) {
		t.Error("CompilePred over literals broken")
	}
}

// TestCompile pins the compiled evaluator's NULL edge cases, mirrored
// comparisons, the remaining date functions and widening on store.
func TestCompile(t *testing.T) {
	null := lit(value.Null)
	a := col(0, value.KindInt)
	checkCompiled(t, []compileCase{
		{&BinOp{Op: "<", L: ilit(5), R: a}, value.NewBool(true)}, // mirrored: a > 5
		{&BinOp{Op: "/", L: a, R: ilit(0)}, value.Null},
		{&BinOp{Op: "%", L: a, R: ilit(0)}, value.Null},
		{&UnOp{Op: "-", E: col(1, value.KindFloat)}, value.NewFloat(-2.5)},
		{&Between{E: a, Lo: null, Hi: ilit(20)}, value.Null},
		{&InList{E: a, List: []Expr{null, ilit(10)}}, value.NewBool(true)},
		{&InList{E: a, List: []Expr{null, ilit(11)}}, value.NewBool(false)},
		{&InList{E: col(3, value.KindInt), List: []Expr{ilit(1)}}, value.Null},
		{&FuncCall{Name: "DATEADD_MONTH", Args: []Expr{ilit(2), lit(value.NewDate(100))}}, value.NewDate(160)},
		{&FuncCall{Name: "DATEADD_YEAR", Args: []Expr{ilit(1), lit(value.NewDate(100))}}, value.NewDate(465)},
		{&FuncCall{Name: "DATEADD_DAY", Args: []Expr{null, lit(value.NewDate(100))}}, value.Null},
	})
	if got := CompileAs(a, value.KindFloat)(testRow); got.Kind() != value.KindFloat || got.Float() != 10 {
		t.Errorf("BIGINT into DOUBLE = %v (%s)", got, got.Kind())
	}
}

// FuzzTypedExpr builds random expressions over the five-kind table:
// either the binder rejects one, or its compiled closure returns a value
// of the kind typeOf gave it (or NULL) on rows holding NULLs, without
// panicking.
func FuzzTypedExpr(f *testing.F) {
	f.Add([]byte{2, 0, 0, 1, 1, 0})
	f.Add([]byte{2, 0, 0, 3, 0, 1}) // (a / b): DOUBLE over two BIGINTs
	f.Add([]byte{6, 3, 0, 2, 4, 1, 0, 3})
	f.Add([]byte{8, 1, 2, 0, 4, 5, 9, 0, 1, 7, 0, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		src := "SELECT " + genExpr(&data, 0) + " FROM t"
		st, err := ParseOne(src)
		if err != nil {
			return
		}
		b, err := NewBinder(probeCatalog()).BindSelect(st.(*SelectStmt))
		if err != nil {
			return
		}
		e := b.Items[0].Expr
		k, err := typeOf(e)
		if err != nil {
			t.Fatalf("%s: bound but typeOf fails: %v", src, err)
		}
		fn := Compile(e)
		for r := 0; r < 8; r++ {
			row := value.Row{value.NewInt(int64(r) - 3), value.NewInt(int64(r * r)),
				value.NewFloat(float64(r) / 2), value.NewString(fmt.Sprint(r)), value.NewDate(int64(r * 40))}
			row[r%5] = value.Null
			if v := fn(row); !v.IsNull() && v.Kind() != k {
				t.Fatalf("%s on %v = %v (%s), typed %s", src, row, v, v.Kind(), k)
			}
		}
	})
}

// genExpr draws one expression of SQL text from the fuzz input.
func genExpr(data *[]byte, depth int) string {
	next := func(n int) int {
		if len(*data) == 0 {
			return 0
		}
		b := (*data)[0]
		*data = (*data)[1:]
		return int(b) % n
	}
	leaves := []string{"a", "b", "f", "s", "d", "1", "0", "2.5", "'x'", "'1998-01-02'", "NULL", "TRUE"}
	ops := []string{"+", "-", "*", "/", "%", "=", "<>", "<", ">=", "AND", "OR"}
	sub := func() string { return genExpr(data, depth+1) }
	switch c := next(9); {
	case c < 2 || depth > 3:
		return leaves[next(len(leaves))]
	case c < 5:
		return "(" + sub() + " " + ops[next(len(ops))] + " " + sub() + ")"
	case c == 5:
		return []string{"NOT ", "-"}[next(2)] + "(" + sub() + ")"
	case c == 6:
		return "(" + sub() + " BETWEEN " + sub() + " AND " + sub() + ")"
	case c == 7:
		return "(" + sub() + " IN (" + sub() + ", " + sub() + "))"
	}
	return "DATEADD(" + []string{"day", "month", "year"}[next(3)] + ", " + sub() + ", " + sub() + ")"
}
