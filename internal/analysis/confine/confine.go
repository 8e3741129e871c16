// Package confine keeps three constructs where the runtime gates can
// see them. It proves nothing about what happens inside the one
// function allowed to hold a construct — TestRunWorkersCoverage,
// TestSpawn, TestSpineGolden and the -race pass pin that — only that
// there is no second place to get it wrong:
//
//   - a go statement in the engine's data-path packages appears only in
//     exec.spawn (start n, recover each, wait for all), and in engine
//     only in EnableTupleMover (joined by DisableTupleMover);
//   - (*vclock.Tracker).Fork and Merge are called only from
//     exec.runWorkers, so there is one place a fork can go unmerged;
//   - package-level sync/atomic functions (atomic.AddInt64(&x, 1)) are
//     banned everywhere: an atomic.Int64-typed variable cannot be read
//     or written plainly by mistake.
package confine

import (
	"go/ast"
	"go/types"
	"slices"

	"hybriddb/internal/analysis"
)

// rule confines one construct: in the scope packages (nil = every
// package) it may appear only inside home[package element]. Packages
// and functions match by import-path element and name, so the fixture
// mirrors under testdata exercise the same table.
type rule struct {
	construct string
	scope     []string
	home      map[string]string
}

var (
	goStmt = rule{"go statement", []string{"exec", "colstore", "optimizer", "table", "btree", "heap", "storage", "vec", "engine"},
		map[string]string{"exec": "spawn", "engine": "EnableTupleMover"}}
	forkMerge  = rule{"vclock.Tracker Fork/Merge call", nil, map[string]string{"exec": "runWorkers"}}
	atomicFunc = rule{"package-level sync/atomic function (use the atomic.Int64-style types)", nil, nil}
)

// New returns a fresh confine analyzer.
func New() *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: "confine",
		Doc:  "allow go statements, Tracker.Fork/Merge and sync/atomic functions only in their one designated function",
		Run:  run,
	}
}

func run(pass *analysis.Pass) error {
	elem := analysis.PkgElem(pass.Pkg.Path())
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			where := "a package-level declaration"
			if fn, ok := decl.(*ast.FuncDecl); ok {
				where = fn.Name.Name
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				r, ok := classify(pass, n)
				if !ok || (r.scope != nil && !slices.Contains(r.scope, elem)) {
					return true
				}
				pass.Examined()
				if home := r.home[elem]; home == "" {
					pass.Reportf(n.Pos(), "%s is not allowed in package %s", r.construct, elem)
				} else if where != home {
					pass.Reportf(n.Pos(), "%s in %s: package %s may hold it only in %s", r.construct, where, elem, home)
				}
				return true
			})
		}
	}
	return nil
}

// classify names the rule a node falls under, if any. A typed atomic's
// method is the third rule's subject in its sanctioned form: counted as
// examined, never flagged.
func classify(pass *analysis.Pass, n ast.Node) (rule, bool) {
	switch n := n.(type) {
	case *ast.GoStmt:
		return goStmt, true
	case *ast.CallExpr:
		fn := analysis.CalleeFunc(pass.TypesInfo, n)
		if fn == nil || fn.Pkg() == nil {
			break
		}
		method := fn.Type().(*types.Signature).Recv() != nil
		switch {
		case analysis.IsPkg(fn.Pkg(), "vclock") && method && (fn.Name() == "Fork" || fn.Name() == "Merge"):
			return forkMerge, true
		case fn.Pkg().Path() == "sync/atomic" && method:
			pass.Examined()
		case fn.Pkg().Path() == "sync/atomic":
			return atomicFunc, true
		}
	}
	return rule{}, false
}
