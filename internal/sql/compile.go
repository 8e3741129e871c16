package sql

import (
	"hybriddb/internal/value"
)

// cmpHolds maps each comparison operator to the test it applies to a
// value.Compare result.
var cmpHolds = map[string]func(c int) bool{
	"=":  func(c int) bool { return c == 0 },
	"<>": func(c int) bool { return c != 0 },
	"<":  func(c int) bool { return c < 0 },
	"<=": func(c int) bool { return c <= 0 },
	">":  func(c int) bool { return c > 0 },
	">=": func(c int) bool { return c >= 0 },
}

// dateAddDays is the day count one unit of each DATEADD form adds.
var dateAddDays = map[string]int64{"DATEADD_DAY": 1, "DATEADD_MONTH": 30, "DATEADD_YEAR": 365}

// Compile builds the evaluator of a bound expression once, dispatching
// on node, operator and function name at compile time; the closure
// reads a composite row laid out by slot (see Binder). e must be one
// the binder typed (typeOf): then every accessor the closure calls
// matches its operand's kind, so evaluation cannot panic. A node typeOf
// rejects — an unknown operator or function, or an aggregate the
// planner did not replace — evaluates to NULL.
func Compile(e Expr) func(value.Row) value.Value {
	switch n := e.(type) {
	case *Lit:
		v := n.Val
		return func(value.Row) value.Value { return v }
	case *ColRef:
		slot := n.Slot
		return func(r value.Row) value.Value { return r[slot] }
	case *BinOp:
		return compileBinOp(n)
	case *UnOp:
		x := Compile(n.E)
		switch n.Op {
		case "NOT":
			return func(r value.Row) value.Value {
				v := x(r)
				if v.IsNull() {
					return value.Null
				}
				return value.NewBool(!v.Bool())
			}
		case "-":
			return func(r value.Row) value.Value {
				switch v := x(r); v.Kind() {
				case value.KindFloat:
					return value.NewFloat(-v.Float())
				case value.KindInt:
					return value.NewInt(-v.Int())
				}
				return value.Null
			}
		}
	case *Between:
		x, lo, hi, not := Compile(n.E), Compile(n.Lo), Compile(n.Hi), n.Not
		return func(r value.Row) value.Value {
			v, l, h := x(r), lo(r), hi(r)
			if v.IsNull() || l.IsNull() || h.IsNull() {
				return value.Null
			}
			return value.NewBool((value.Compare(v, l) >= 0 && value.Compare(v, h) <= 0) != not)
		}
	case *IsNull:
		x, not := Compile(n.E), n.Not
		return func(r value.Row) value.Value { return value.NewBool(x(r).IsNull() != not) }
	case *InList:
		x, not := Compile(n.E), n.Not
		list := make([]func(value.Row) value.Value, len(n.List))
		for i, le := range n.List {
			list[i] = Compile(le)
		}
		return func(r value.Row) value.Value {
			v := x(r)
			if v.IsNull() {
				return value.Null
			}
			found := false
			for _, le := range list {
				if lv := le(r); !lv.IsNull() && value.Compare(v, lv) == 0 {
					found = true
					break
				}
			}
			return value.NewBool(found != not)
		}
	case *FuncCall:
		if days, ok := dateAddDays[n.Name]; ok && len(n.Args) == 2 {
			amt, d := Compile(n.Args[0]), Compile(n.Args[1])
			return func(r value.Row) value.Value {
				a, dv := amt(r), d(r)
				if a.IsNull() || dv.IsNull() {
					return value.Null
				}
				return value.NewDate(dv.Int() + a.Int()*days)
			}
		}
	}
	return func(value.Row) value.Value { return value.Null }
}

// arith maps each arithmetic operator but % to its value function.
var arith = map[string]func(a, b value.Value) value.Value{
	"+": value.Add, "-": value.Sub, "*": value.Mul, "/": value.Div,
}

func compileBinOp(n *BinOp) func(value.Row) value.Value {
	l, r := Compile(n.L), Compile(n.R)
	if f := arith[n.Op]; f != nil {
		return func(row value.Row) value.Value { return f(l(row), r(row)) }
	}
	switch n.Op {
	case "AND", "OR":
		// Three-valued logic: the deciding value (FALSE for AND, TRUE
		// for OR) on either side wins over NULL.
		decides := n.Op == "OR"
		return func(row value.Row) value.Value {
			lv := l(row)
			if !lv.IsNull() && lv.Bool() == decides {
				return lv
			}
			rv := r(row)
			if !rv.IsNull() && rv.Bool() == decides {
				return rv
			}
			if lv.IsNull() || rv.IsNull() {
				return value.Null
			}
			return value.NewBool(!decides)
		}
	case "%":
		return func(row value.Row) value.Value {
			a, b := l(row), r(row)
			if a.IsNull() || b.IsNull() || b.Int() == 0 {
				return value.Null
			}
			return value.NewInt(a.Int() % b.Int())
		}
	}
	holds := cmpHolds[n.Op]
	if holds == nil {
		return func(value.Row) value.Value { return value.Null }
	}
	return func(row value.Row) value.Value {
		a, b := l(row), r(row)
		if a.IsNull() || b.IsNull() {
			return value.Null
		}
		return value.NewBool(holds(value.Compare(a, b)))
	}
}

// CompilePred compiles a predicate: the closure reports whether the row
// is selected (three-valued logic: NULL is not true).
func CompilePred(e Expr) func(value.Row) bool {
	f := Compile(e)
	return func(r value.Row) bool {
		v := f(r)
		return v.Kind() == value.KindBool && v.Bool()
	}
}

// CompileAs compiles a SET value for a column of kind k. The binder
// admits one conversion for a value it cannot fold: an integer into a
// FLOAT column, widened here, so the stored kind is always k.
func CompileAs(e Expr, k value.Kind) func(value.Row) value.Value {
	f := Compile(e)
	if ek, _ := typeOf(e); ek != value.KindInt || k != value.KindFloat {
		return f
	}
	return func(r value.Row) value.Value {
		if v := f(r); !v.IsNull() {
			return value.NewFloat(v.Float())
		}
		return value.Null
	}
}
