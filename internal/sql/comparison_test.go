package sql

import (
	"testing"

	"hybriddb/internal/value"
)

// cmpCatalog has one column of each kind a comparison can meet.
func cmpCatalog() fakeCatalog {
	return fakeCatalog{"p": value.NewSchema(
		value.Column{Name: "a", Kind: value.KindInt},
		value.Column{Name: "b", Kind: value.KindInt},
		value.Column{Name: "s", Kind: value.KindString},
		value.Column{Name: "d", Kind: value.KindDate},
	)}
}

func bindWhere(where string) (*BoundSelect, error) {
	st, err := ParseOne("SELECT a FROM p WHERE " + where)
	if err != nil {
		return nil, err
	}
	return NewBinder(cmpCatalog()).BindSelect(st.(*SelectStmt))
}

func TestAsComparison(t *testing.T) {
	cases := []struct {
		where string
		col   string // "" = not a column-versus-constant comparison
		op    string
		lit   value.Value
	}{
		{"a = 5", "a", "=", value.NewInt(5)},
		{"a <> 5", "a", "<>", value.NewInt(5)},
		{"a < 5", "a", "<", value.NewInt(5)},
		{"a <= 5", "a", "<=", value.NewInt(5)},
		{"a > 5", "a", ">", value.NewInt(5)},
		{"a >= 5", "a", ">=", value.NewInt(5)},
		// Literal on the left: returned mirrored.
		{"5 = a", "a", "=", value.NewInt(5)},
		{"5 <> a", "a", "<>", value.NewInt(5)},
		{"5 < a", "a", ">", value.NewInt(5)},
		{"5 <= a", "a", ">=", value.NewInt(5)},
		{"5 > a", "a", "<", value.NewInt(5)},
		{"5 >= a", "a", "<=", value.NewInt(5)},
		{"'m' <= s", "s", ">=", value.NewString("m")},
		// A NULL literal compares to nothing.
		{where: "a = NULL"},
		{where: "NULL < a"},
		// Other predicate shapes are not comparisons with a constant.
		{where: "a BETWEEN 1 AND 2"},
		{where: "a IN (1, 2)"},
		{where: "a < b"},
		{where: "a + 1 < 5"},
		{where: "a = 5 OR b = 3"},
		{where: "a IS NULL"},
	}
	for _, c := range cases {
		b, err := bindWhere(c.where)
		if err != nil {
			t.Fatalf("%s: %v", c.where, err)
		}
		if len(b.Conjuncts) != 1 {
			t.Fatalf("%s: %d conjuncts", c.where, len(b.Conjuncts))
		}
		e := b.Conjuncts[0]
		before := e.String()
		col, op, lit, ok := AsComparison(e)
		if e.String() != before {
			t.Errorf("%s: expression rewritten to %s", c.where, e)
		}
		if c.col == "" {
			if ok || col != nil || lit != nil || op != "" {
				t.Errorf("%s: matched as %v %q %v", c.where, col, op, lit)
			}
			continue
		}
		if !ok || col.Name != c.col || op != c.op || value.Compare(lit.Val, c.lit) != 0 {
			t.Errorf("%s: got (%v %q %v ok=%v), want %s %s %v", c.where, col, op, lit, ok, c.col, c.op, c.lit)
		}
	}
	if _, _, _, ok := AsComparison(nil); ok {
		t.Error("nil expression matched")
	}
}

// A column compared with a literal of a kind it cannot hold is a bind
// error, whichever side the literal is on; before, coercion failed
// silently and the comparison ordered values of different kinds, so
// WHERE s > 1 kept every row.
func TestCrossKindComparisonRejected(t *testing.T) {
	bad := map[string]string{
		"s > 1":            "sql: cannot compare VARCHAR column s with BIGINT literal 1",
		"1 < s":            "sql: cannot compare VARCHAR column s with BIGINT literal 1",
		"a = 'x'":          "sql: cannot compare BIGINT column a with VARCHAR literal x",
		"d < 'monday'":     "sql: cannot compare DATE column d with VARCHAR literal monday",
		"b = 1 AND s <> 2": "sql: cannot compare VARCHAR column s with BIGINT literal 2",
	}
	for where, want := range bad {
		if _, err := bindWhere(where); err == nil || err.Error() != want {
			t.Errorf("%s: err = %v, want %s", where, err, want)
		}
	}
	for _, where := range []string{
		"s > 'a'", "a < 2.5", "a = 2.0", "d = '1998-09-02'", "d >= 10", "a = NULL", "s = NULL",
		"a BETWEEN 1 AND 2", "a < b",
	} {
		if _, err := bindWhere(where); err != nil {
			t.Errorf("%s: %v", where, err)
		}
	}
}
