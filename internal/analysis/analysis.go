// Package analysis is a self-contained, stdlib-only reimplementation
// of the go/analysis vocabulary (Analyzer, Pass, Diagnostic) plus a
// package loader and a vet-style multichecker driver. The container
// this repo builds in has no module proxy access, so golang.org/x/tools
// is unavailable; the API here mirrors go/analysis closely enough that
// the analyzers under internal/analysis/... could be ported to the real
// framework by swapping imports.
//
// The suite enforces the engine invariants that PR 1 (observability)
// and PR 2 (morsel-driven parallelism) introduced and that are easiest
// to break silently: deterministic parallel gather, statement-boundary
// locking, registry-based metric naming, scratch-buffer ownership, and
// the confinement of goroutine spawns and tracker forks. See
// ANALYSIS.md for the catalog.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer is one named invariant check. Analyzers are stateful for
// the duration of one driver run (e.g. metricnames tracks names across
// packages), so they are constructed fresh per run via their package's
// New function.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:ignore comments. It must be a valid identifier.
	Name string
	// Doc is the one-paragraph description shown by hybridlint -list.
	Doc string
	// Run is invoked once per loaded package, in sorted import-path
	// order. It reports findings through the Pass and returns an error
	// only for internal failures (not findings).
	Run func(*Pass) error
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Prog is the whole-run Program shared by every pass: the
	// function-declaration index over every loaded package. May be nil
	// when a Pass is built by hand in tests.
	Prog *Program

	diags    []Diagnostic
	examined int
}

// Examined records that the analyzer evaluated one subject of its rule
// (a lock acquisition, a metric registration, ...), flagged or not.
// `make lint` fails when an analyzer examined nothing over ./...: a
// rule with no subjects in the tree guarantees nothing.
func (p *Pass) Examined() { p.examined++ }

// Reportf records a finding.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// PkgElem returns the last element of an import path ("" for an empty
// path): the analyzers match engine packages by this element so that
// fixture packages under internal/analysis/testdata, which mirror the
// engine's package names, exercise the same code paths.
func PkgElem(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[i+1:]
		}
	}
	return path
}

// IsPkg reports whether pkg's import path ends in elem.
func IsPkg(pkg *types.Package, elem string) bool {
	return pkg != nil && PkgElem(pkg.Path()) == elem
}

// CalleeFunc resolves the *types.Func a call expression invokes
// (package function or method), or nil for builtins, conversions, and
// calls of function-typed values.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fn].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fn.Sel].(*types.Func)
		return f
	}
	return nil
}

// IsStdCall reports whether call invokes pkgPath.name (a package-level
// function, e.g. IsStdCall(info, call, "time", "Now")).
func IsStdCall(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	f := CalleeFunc(info, call)
	return f != nil && f.Pkg() != nil && f.Pkg().Path() == pkgPath && f.Name() == name
}
