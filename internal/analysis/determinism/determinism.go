// Package determinism guards the engine's bit-identical-results
// guarantee (PR 2): EXPLAIN ANALYZE output, Result.Metrics, and result
// rows must not depend on Go's randomized map iteration order or on
// wall-clock time.
//
// Two rules, both scoped to the determinism-critical packages exec,
// colstore, optimizer, and querystore — the query store promises
// bit-identical contents run-to-run, so its snapshots and exports are
// order-sensitive sinks too (matched by import-path element so the
// fixture mirrors exercise the same code):
//
//  1. A `range` over a map whose body feeds an order-sensitive sink —
//     an append to a result-row slice that the function returns, or to
//     a field named Rows/Metrics/Children (TraceNode children,
//     Result.Metrics) or Store (the partitioned hash-join build's
//     per-partition row store, whose order is the probe's
//     match-emission order), or a TraceNode Child call, or a
//     vec.Vec Append (stored column order is result order) — must be
//     followed by a sort (any sort.* / slices.Sort* call after the
//     loop) before the function ends. Otherwise row order changes run
//     to run, which breaks the serial-vs-parallel crosscheck, the
//     partitioned-vs-single-table build equivalence, and the paper's
//     reproducibility. Appends through an index expression
//     (`t.rows[k] = append(t.rows[k], ...)`) are unwrapped to the
//     indexed field.
//
//  2. Wall-clock and ambient randomness are banned: time.Now, Since,
//     Until, After, Tick, NewTimer, NewTicker, AfterFunc, Sleep, and
//     any use of math/rand or math/rand/v2. Virtual time comes from
//     vclock; seeded randomness must be injected explicitly so runs
//     replay.
package determinism

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"hybriddb/internal/analysis"
)

// restricted lists the import-path elements the rules apply to.
var restricted = map[string]bool{"exec": true, "colstore": true, "optimizer": true, "querystore": true}

// wallClock lists the banned time package functions.
var wallClock = map[string]bool{
	"Now": true, "Since": true, "Until": true, "After": true, "Tick": true,
	"NewTimer": true, "NewTicker": true, "AfterFunc": true, "Sleep": true,
}

// sinkFields are order-sensitive destination field names (compared
// case-insensitively). store is the partitioned hash-join build's
// per-partition row store: rows must land in build-input order, so
// filling it in map iteration order is a determinism bug even though
// it holds no result rows itself.
var sinkFields = map[string]bool{
	"rows": true, "metrics": true, "children": true, "store": true,
}

// New returns a fresh determinism analyzer.
func New() *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: "determinism",
		Doc:  "forbid map-iteration order and wall-clock time from reaching result rows, Result.Metrics, or trace trees",
		Run:  run,
	}
}

func run(pass *analysis.Pass) error {
	if !restricted[analysis.PkgElem(pass.Pkg.Path())] {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ImportSpec:
				if p := importPath(n); p == "math/rand" || p == "math/rand/v2" {
					pass.Reportf(n.Pos(), "use of %s in %s: execution must be replayable; inject seeded randomness explicitly", p, analysis.PkgElem(pass.Pkg.Path()))
				}
			case *ast.CallExpr:
				if fn := analysis.CalleeFunc(pass.TypesInfo, n); fn != nil && fn.Pkg() != nil &&
					fn.Pkg().Path() == "time" && wallClock[fn.Name()] {
					pass.Reportf(n.Pos(), "wall-clock call time.%s in %s: virtual time must come from vclock so measurements replay", fn.Name(), analysis.PkgElem(pass.Pkg.Path()))
				}
			case *ast.FuncDecl:
				if n.Body != nil {
					checkMapOrder(pass, n)
				}
			}
			return true
		})
	}
	return nil
}

// checkMapOrder applies rule 1 to one function.
func checkMapOrder(pass *analysis.Pass, fn *ast.FuncDecl) {
	// Gather order-sensitive map-range loops and what they feed.
	type loop struct {
		rng *ast.RangeStmt
		// sinks: objects of local slice vars appended to in the body.
		locals map[types.Object]bool
		// direct reports an append/Child call straight into a sink
		// field inside the body.
		direct bool
	}
	var loops []*loop
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := pass.TypesInfo.Types[rng.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		pass.Examined()
		l := &loop{rng: rng, locals: map[types.Object]bool{}}
		ast.Inspect(rng.Body, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.AssignStmt:
				for i, rhs := range m.Rhs {
					call, ok := ast.Unparen(rhs).(*ast.CallExpr)
					if !ok || !isAppend(pass.TypesInfo, call) || i >= len(m.Lhs) {
						continue
					}
					target := ast.Unparen(m.Lhs[i])
					// Unwrap index expressions so per-key writes
					// (`t.rows[k] = append(t.rows[k], ...)`) resolve to
					// the indexed field or variable.
					for {
						ix, ok := target.(*ast.IndexExpr)
						if !ok {
							break
						}
						target = ast.Unparen(ix.X)
					}
					switch lhs := target.(type) {
					case *ast.Ident:
						if obj := pass.TypesInfo.ObjectOf(lhs); obj != nil {
							l.locals[obj] = true
						}
					case *ast.SelectorExpr:
						if sinkFields[strings.ToLower(lhs.Sel.Name)] {
							l.direct = true
						}
					}
				}
			case *ast.CallExpr:
				// tn.Child(...) inside a map range appends a trace child
				// in map order; v.Append(...) on a column vector stores
				// rows in map order, which is the order probes emit them.
				if f := analysis.CalleeFunc(pass.TypesInfo, m); f != nil {
					if f.Name() == "Child" && analysis.IsPkg(f.Pkg(), "metrics") {
						l.direct = true
					}
					if f.Name() == "Append" && analysis.IsPkg(f.Pkg(), "vec") {
						l.direct = true
					}
				}
			}
			return true
		})
		if l.direct || len(l.locals) > 0 {
			loops = append(loops, l)
		}
		return true
	})
	if len(loops) == 0 {
		return
	}

	// A sort anywhere after a loop clears that loop's sinks.
	sorted := func(after token.Pos) bool {
		found := false
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || call.Pos() < after {
				return true
			}
			if f := analysis.CalleeFunc(pass.TypesInfo, call); f != nil && f.Pkg() != nil {
				if p := f.Pkg().Path(); p == "sort" || p == "slices" {
					found = true
					return false
				}
			}
			return true
		})
		return found
	}

	for _, l := range loops {
		if sorted(l.rng.End()) {
			continue
		}
		if l.direct {
			pass.Reportf(l.rng.Pos(), "map iteration order flows into result rows / Result.Metrics / TraceNode children without a sort; map order is randomized per run")
			continue
		}
		// Locals: flag only if the appended slice escapes as results —
		// returned, or assigned to a sink field after the loop.
		if escapes(pass, fn, l.locals, l.rng.End()) {
			pass.Reportf(l.rng.Pos(), "rows accumulated in map iteration order escape this function without a sort; map order is randomized per run")
		}
	}
}

// escapes reports whether any of the objects is returned from fn or
// assigned to an order-sensitive sink field after pos.
func escapes(pass *analysis.Pass, fn *ast.FuncDecl, objs map[types.Object]bool, after token.Pos) bool {
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if id, ok := ast.Unparen(res).(*ast.Ident); ok && objs[pass.TypesInfo.ObjectOf(id)] {
					found = true
				}
			}
		case *ast.AssignStmt:
			if n.Pos() < after {
				return true
			}
			for i, lhs := range n.Lhs {
				sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
				if !ok || !sinkFields[strings.ToLower(sel.Sel.Name)] || i >= len(n.Rhs) {
					continue
				}
				if id, ok := ast.Unparen(n.Rhs[i]).(*ast.Ident); ok && objs[pass.TypesInfo.ObjectOf(id)] {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

func isAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

func importPath(s *ast.ImportSpec) string {
	p := s.Path.Value
	if len(p) >= 2 {
		return p[1 : len(p)-1]
	}
	return p
}
