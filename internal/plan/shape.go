package plan

import (
	"fmt"
	"strconv"
	"strings"

	"hybriddb/internal/sql"
)

// Shape renders the physical plan's canonical shape: one line per
// operator with the decisions that define the plan — access paths,
// index names, join strategies and key slots, aggregate functions,
// predicate structure — and none of the values that vary between
// executions of the same logical plan: literal constants (rendered as
// `?` via sql.ExprShape) and optimizer row/cost estimates. Two
// statements with the same Shape chose the same plan; the query store
// fingerprints normalized SQL together with this string so the same
// query text picking a different plan (say, after an index build)
// folds into a different fingerprint. The trailing [dop=N] line is the
// plan's virtual degree of parallelism — an optimizer decision, stable
// at any real worker count.
func Shape(root *Root) string {
	var b strings.Builder
	var walk func(n Node, depth int)
	walk = func(n Node, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(nodeShape(n))
		b.WriteByte('\n')
		for _, c := range n.Children() {
			walk(c, depth+1)
		}
	}
	walk(root.Input, 0)
	fmt.Fprintf(&b, "[dop=%d]\n", root.DOP)
	return b.String()
}

// nodeShape renders one operator's shape line.
func nodeShape(n Node) string {
	switch v := n.(type) {
	case *Scan:
		return scanShape(v)
	case *Filter:
		s := "Filter(" + exprShapes(v.Conds) + ")"
		if v.BatchMode {
			s += " batch"
		}
		return s
	case *Join:
		keys := make([]string, len(v.Keys))
		for i, k := range v.Keys {
			keys[i] = fmt.Sprintf("%d=%d", k.Left, k.Right)
		}
		s := v.Strategy.String() + "(" + strings.Join(keys, ",") + ")"
		if v.Parallel {
			s += " parallel"
		}
		return s
	case *Agg:
		var specs []string
		for _, sp := range v.Specs {
			spec := sp.Func.String()
			if sp.Distinct {
				spec += "-distinct"
			}
			if sp.Arg != nil {
				spec += "(" + sql.ExprShape(sp.Arg) + ")"
			}
			specs = append(specs, spec)
		}
		s := fmt.Sprintf("%s(groups=%v specs=[%s])", v.Describe(), v.GroupSlots, strings.Join(specs, " "))
		if v.BatchMode {
			s += " batch"
		}
		if v.Parallel {
			s += " parallel"
		}
		return s
	case *Project:
		return "Project(" + exprShapes(v.Exprs) + ")"
	case *Sort:
		var keys []string
		for _, k := range v.Keys {
			ks := sql.ExprShape(k.Expr)
			if k.Desc {
				ks += " DESC"
			}
			keys = append(keys, ks)
		}
		s := "Sort(" + strings.Join(keys, ", ") + ")"
		if v.Parallel {
			s += " parallel"
		}
		return s
	case *Top:
		// N is a literal; the shape keeps only the operator.
		return "Top"
	}
	return n.Describe()
}

func scanShape(s *Scan) string {
	var b strings.Builder
	b.WriteString(s.Describe())
	if s.Index != nil {
		b.WriteString(" index=" + s.Index.Name)
	}
	switch s.Access {
	case AccessClusteredSeek, AccessSecondarySeek:
		b.WriteString(" seek=col" + strconv.Itoa(s.SeekCol))
		b.WriteString(boundShape(s.Lo, s.Hi))
	case AccessCSIScan:
		if !s.Lo.Unbounded || !s.Hi.Unbounded {
			b.WriteString(" prune=col" + strconv.Itoa(s.SeekCol))
			b.WriteString(boundShape(s.Lo, s.Hi))
		}
	}
	if len(s.Push) > 0 {
		parts := make([]string, len(s.Push))
		for i, p := range s.Push {
			parts[i] = fmt.Sprintf("col%d%s?", p.Col, p.Op)
		}
		b.WriteString(" push=[" + strings.Join(parts, " ") + "]")
	}
	if len(s.Filter) > 0 {
		b.WriteString(" filter=" + exprShapes(s.Filter))
	}
	if len(s.NeedCols) > 0 {
		b.WriteString(fmt.Sprintf(" cols=%v", s.NeedCols))
	}
	if s.BatchMode {
		b.WriteString(" batch")
	}
	if s.Covered {
		b.WriteString(" covered")
	}
	if s.Parallel {
		b.WriteString(" parallel")
	}
	return b.String()
}

// boundShape encodes which ends of a seek range are bounded and how
// (inclusive/exclusive), without the bound values.
func boundShape(lo, hi Bound) string {
	end := func(b Bound, inc, exc string) string {
		if b.Unbounded {
			return ""
		}
		if b.Inclusive {
			return inc
		}
		return exc
	}
	l, h := end(lo, "[?", "(?"), end(hi, "?]", "?)")
	if l == "" && h == "" {
		return ""
	}
	if l == "" {
		l = "(-inf"
	}
	if h == "" {
		h = "+inf)"
	}
	return " range=" + l + "," + h
}

func exprShapes(es []sql.Expr) string {
	parts := make([]string, len(es))
	for i, e := range es {
		parts[i] = sql.ExprShape(e)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
