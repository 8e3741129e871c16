package sql

import "strings"

// Normalize returns the canonical parameterized form of a statement:
// number, string, and boolean literals become `?`, identifier and
// keyword case is folded (idents lower, keywords upper), whitespace
// and comments collapse to single spaces, and literal lists shrink to
// one placeholder — `IN (1, 2, 3)` and `IN (7)` both normalize to
// `IN (?)`, and a multi-row `VALUES (1, 2), (3, 4)` collapses to
// `VALUES (?)` — so statements differing only in constants (or in how
// many constants a list or batch carries) share one normalized text.
// The query store fingerprints this form together with the plan shape.
func Normalize(src string) (string, error) {
	toks, err := lex(src)
	if err != nil {
		return "", err
	}
	parts := make([]string, 0, len(toks))
	for _, t := range toks {
		switch t.kind {
		case tokEOF:
		case tokNumber, tokString:
			parts = append(parts, "?")
		case tokKeyword:
			if t.text == "TRUE" || t.text == "FALSE" {
				parts = append(parts, "?")
			} else {
				parts = append(parts, t.text)
			}
		default:
			parts = append(parts, t.text)
		}
	}
	// Collapsing a tuple list can expose a placeholder list (and vice
	// versa), so run to a fixpoint; two passes suffice in practice.
	for {
		collapsed := collapsePlaceholders(parts)
		if len(collapsed) == len(parts) {
			parts = collapsed
			break
		}
		parts = collapsed
	}
	return renderTokens(parts), nil
}

// collapsePlaceholders shrinks `?, ?, ...` runs to one `?` and
// `(?), (?), ...` tuple runs to one `(?)`.
func collapsePlaceholders(toks []string) []string {
	match := func(i int, pat ...string) bool {
		if i+len(pat) > len(toks) {
			return false
		}
		for j, p := range pat {
			if toks[i+j] != p {
				return false
			}
		}
		return true
	}
	out := make([]string, 0, len(toks))
	for i := 0; i < len(toks); {
		switch {
		case match(i, "?", ",", "?"):
			out = append(out, "?")
			i++
			for match(i, ",", "?") {
				i += 2
			}
		case match(i, "(", "?", ")", ",", "(", "?", ")"):
			out = append(out, "(", "?", ")")
			i += 3
			for match(i, ",", "(", "?", ")") {
				i += 4
			}
		default:
			out = append(out, toks[i])
			i++
		}
	}
	return out
}

// renderTokens joins tokens with single spaces, omitting the space
// around punctuation that SQL conventionally writes tight.
func renderTokens(toks []string) string {
	var b strings.Builder
	prev := ""
	for _, t := range toks {
		if b.Len() > 0 && !noSpaceBefore(t) && !noSpaceAfter(prev) &&
			!(t == "(" && funcNames[prev]) {
			b.WriteByte(' ')
		}
		b.WriteString(t)
		prev = t
	}
	return b.String()
}

// funcNames are keywords rendered tight against their argument list.
var funcNames = map[string]bool{
	"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true,
	"DATEADD": true,
}

func noSpaceBefore(t string) bool {
	return t == "," || t == ")" || t == "." || t == ";"
}

func noSpaceAfter(t string) bool { return t == "(" || t == "." }

// ExprShape renders an expression like String() but with every literal
// replaced by `?`, so two predicates differing only in constants have
// the same shape. The plan-shape hash uses it for filter conjuncts,
// project expressions, and sort keys.
func ExprShape(e Expr) string {
	if e == nil {
		return ""
	}
	switch n := e.(type) {
	case *Lit:
		return "?"
	case *ColRef:
		return n.String()
	case *BinOp:
		return "(" + ExprShape(n.L) + " " + n.Op + " " + ExprShape(n.R) + ")"
	case *UnOp:
		return "(" + n.Op + " " + ExprShape(n.E) + ")"
	case *Between:
		if n.Not {
			return "(" + ExprShape(n.E) + " NOT BETWEEN ? AND ?)"
		}
		return "(" + ExprShape(n.E) + " BETWEEN ? AND ?)"
	case *IsNull:
		if n.Not {
			return "(" + ExprShape(n.E) + " IS NOT NULL)"
		}
		return "(" + ExprShape(n.E) + " IS NULL)"
	case *InList:
		if n.Not {
			return "(" + ExprShape(n.E) + " NOT IN (?))"
		}
		return "(" + ExprShape(n.E) + " IN (?))"
	case *FuncCall:
		parts := make([]string, len(n.Args))
		for i, a := range n.Args {
			parts[i] = ExprShape(a)
		}
		return n.Name + "(" + strings.Join(parts, ", ") + ")"
	case *AggCall:
		if n.Star {
			return n.Func + "(*)"
		}
		if n.Distinct {
			return n.Func + "(DISTINCT " + ExprShape(n.Arg) + ")"
		}
		return n.Func + "(" + ExprShape(n.Arg) + ")"
	}
	return e.String()
}
