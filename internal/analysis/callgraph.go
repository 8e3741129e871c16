package analysis

import (
	"go/ast"
	"go/types"
)

// Program is the whole-run view the interprocedural analyzers share:
// an index from *types.Func to its declaration over every loaded
// package. One Program is built per RunAnalyzers invocation and
// handed to every Pass, so lockorder's one-level descent sees the same
// function set regardless of which package it is currently reporting
// on.
//
// "Project-local" means: functions declared in the loaded target
// packages. Dependencies (stdlib included) are visible only as
// *types.Func without bodies; FuncOf returns nil for them and callers
// must treat such calls opaquely.
type Program struct {
	funcs map[*types.Func]*ProgFunc
}

// ProgFunc is one project-local function or method declaration.
type ProgFunc struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
}

// NewProgram indexes the loaded packages' function declarations.
func NewProgram(pkgs []*Package) *Program {
	p := &Program{funcs: map[*types.Func]*ProgFunc{}}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				if fn, ok := pkg.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					p.funcs[fn] = &ProgFunc{Fn: fn, Decl: fd, Pkg: pkg}
				}
			}
		}
	}
	return p
}

// FuncOf returns the project-local declaration of fn, or nil when fn
// is not declared in a loaded target package (stdlib, dependencies,
// interface methods, func-typed values).
func (p *Program) FuncOf(fn *types.Func) *ProgFunc {
	if fn == nil {
		return nil
	}
	return p.funcs[fn]
}
