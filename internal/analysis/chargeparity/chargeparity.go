// Package chargeparity enforces the fork/merge discipline of
// vclock.Tracker, the determinism contract every virtual-time number
// (EXPERIMENTS.md, testdata/spine_golden.json) rests on.
//
// Morsel-driven operators charge work to per-worker Tracker forks and
// sum them back into the query tracker at the gather point
// (exec.runWorkers). The contract, from vclock.Tracker.Fork's own
// documentation and PR 7's partitioned join build:
//
//   - every Fork() result must flow to exactly one Merge on every
//     control-flow path — a fork that is never merged silently drops
//     its workers' charges from Metrics; a fork merged twice
//     double-counts them;
//   - a fork-local tracker must never Alloc (Merge folds MemPeak with
//     max, so per-worker duplicates of shared state double-count —
//     morselScanAggRows allocates merged groups on the query tracker
//     at the gather point for exactly this reason) and must never
//     ChargeDataWrite (write charges are coordinator-issued, in input
//     order, on the parent tracker — the partitioned build's
//     bit-identical-at-any-P guarantee);
//   - no charge may be issued on a fork after it has been merged: the
//     parent has already folded the fork in, so the late charge
//     vanishes from the query's totals.
//
// The analysis is a per-function dataflow over the CFG facility
// (Pass.CFG). A fork that escapes the function — stored into a slice
// or struct, passed to another call, captured by a closure — leaves
// the checkable region and parity is not enforced for it (the direct
// Alloc/ChargeDataWrite rule still applies to uses the function can
// see); exec.runWorkers' forks-into-slice gather is therefore not
// flagged, while the single-fork idioms future operators will write
// are fully checked.
//
// Tracker identity matches on (package path element "vclock", type
// name "Tracker"), so the fixture mirror under
// internal/analysis/testdata exercises the production predicate.
package chargeparity

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"hybriddb/internal/analysis"
)

// New returns a fresh chargeparity analyzer.
func New() *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: "chargeparity",
		Doc:  "vclock.Tracker forks must merge exactly once per path, never Alloc/ChargeDataWrite, and never charge after merge",
		Run:  run,
	}
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkFunc(pass, fn)
		}
	}
	return nil
}

// trackerMethod resolves a call of the form recv.M(...) where recv's
// named type is vclock.Tracker (by package element), returning the
// method name and the receiver expression.
func trackerMethod(pass *analysis.Pass, call *ast.CallExpr) (name string, recv ast.Expr, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", nil, false
	}
	fn, _ := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if fn == nil {
		return "", nil, false
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return "", nil, false
	}
	rt := sig.Recv().Type()
	if p, isPtr := rt.(*types.Pointer); isPtr {
		rt = p.Elem()
	}
	named, isNamed := rt.(*types.Named)
	if !isNamed || named.Obj().Name() != "Tracker" || named.Obj().Pkg() == nil ||
		analysis.PkgElem(named.Obj().Pkg().Path()) != "vclock" {
		return "", nil, false
	}
	return fn.Name(), ast.Unparen(sel.X), true
}

// isCharge reports whether a Tracker method mutates accounting state
// (as opposed to reading it: Snapshot, ExecTime, CPUTime, MemInUse).
func isCharge(method string) bool {
	return strings.HasPrefix(method, "Charge") ||
		method == "Alloc" || method == "Free" || method == "SetDOP"
}

// forkVar is one `v := t.Fork()` site being tracked.
type forkVar struct {
	obj      types.Object
	assign   ast.Node // the CFG node holding the fork
	forkPos  token.Pos
	escaped  bool
	mergePos []token.Pos // sanctioned Merge-argument ident positions
	recvPos  []token.Pos // sanctioned receiver ident positions
}

// use classifies one CFG node's interaction with a fork variable.
type use struct {
	kind useKind
	pos  token.Pos
}

type useKind int

const (
	useNone useKind = iota
	useMerge
	useCharge // legal before merge, flagged after
	useFork   // the defining assignment
)

func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl) {
	cfg := pass.CFG(fn)

	// Direct violations that need no tracking: a chained call on a
	// fresh fork (t.Fork().Alloc(...)) and a discarded fork result.
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if name, recv, ok := trackerMethod(pass, call); ok {
			if inner, isCall := recv.(*ast.CallExpr); isCall {
				if iname, _, iok := trackerMethod(pass, inner); iok && iname == "Fork" {
					pass.Reportf(call.Pos(), "%s called directly on a Fork result; the fork is never merged, so its charges are lost", name)
				}
			}
			if name == "Fork" {
				if es, isStmt := exprStmtParent(fn, call); isStmt && es != nil {
					pass.Reportf(call.Pos(), "Fork result discarded; every fork must be merged back exactly once")
				}
			}
		}
		return true
	})

	// Collect tracked fork variables: v := t.Fork() with v an ident.
	var forks []*forkVar
	for _, blk := range cfg.Blocks {
		for _, n := range blk.Nodes {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Rhs) != 1 || len(as.Lhs) != 1 {
				continue
			}
			call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
			if !ok {
				continue
			}
			if name, _, ok := trackerMethod(pass, call); !ok || name != "Fork" {
				continue
			}
			id, ok := as.Lhs[0].(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			obj := pass.TypesInfo.Defs[id]
			if obj == nil {
				obj = pass.TypesInfo.Uses[id]
			}
			if obj == nil {
				continue
			}
			forks = append(forks, &forkVar{obj: obj, assign: n, forkPos: call.Pos()})
		}
	}
	if len(forks) == 0 {
		return
	}

	for _, fv := range forks {
		classifyUses(pass, fn, fv)
		checkParity(pass, cfg, fv)
	}
}

// exprStmtParent reports whether call is the entire expression of an
// ExprStmt in fn's body (a discarded result).
func exprStmtParent(fn *ast.FuncDecl, call *ast.CallExpr) (*ast.ExprStmt, bool) {
	var found *ast.ExprStmt
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if es, ok := n.(*ast.ExprStmt); ok && ast.Unparen(es.X) == call {
			found = es
			return false
		}
		return true
	})
	return found, found != nil
}

// classifyUses finds every mention of fv.obj in the function,
// sanctioning receiver-of-Tracker-method and Merge-argument positions;
// any other mention marks the fork as escaped. Direct Alloc and
// ChargeDataWrite on the fork are reported here, escape or not.
func classifyUses(pass *analysis.Pass, fn *ast.FuncDecl, fv *forkVar) {
	sanctioned := map[token.Pos]bool{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name, recv, ok := trackerMethod(pass, call)
		if !ok {
			return true
		}
		if id, isID := recv.(*ast.Ident); isID && pass.TypesInfo.Uses[id] == fv.obj {
			sanctioned[id.Pos()] = true
			switch name {
			case "Alloc":
				pass.Reportf(call.Pos(), "Alloc on fork-local tracker %s; forks must not account memory — Merge folds MemPeak by max, so allocate on the query tracker at the gather point", fv.obj.Name())
			case "ChargeDataWrite":
				pass.Reportf(call.Pos(), "ChargeDataWrite on fork-local tracker %s; write charges are coordinator-issued on the parent tracker in input order (partitioned-build determinism)", fv.obj.Name())
			}
		}
		if name == "Merge" && len(call.Args) == 1 {
			if id, isID := ast.Unparen(call.Args[0]).(*ast.Ident); isID && pass.TypesInfo.Uses[id] == fv.obj {
				sanctioned[id.Pos()] = true
			}
		}
		return true
	})
	// The defining occurrence is sanctioned too.
	if as, ok := fv.assign.(*ast.AssignStmt); ok {
		if id, ok := as.Lhs[0].(*ast.Ident); ok {
			sanctioned[id.Pos()] = true
		}
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if (pass.TypesInfo.Uses[id] == fv.obj || pass.TypesInfo.Defs[id] == fv.obj) && !sanctioned[id.Pos()] {
			fv.escaped = true
		}
		return true
	})
}

// Dataflow states for one fork variable.
const (
	stUnforked = 1 << iota // before the fork executes
	stLive                 // forked, not yet merged
	stMerged               // merged
)

// checkParity runs the per-path merge-parity dataflow: on every path
// from the fork to function exit the variable must be merged exactly
// once, and no charge may follow the merge. Escaped forks are skipped
// — once the value leaves the function's view the analysis cannot
// prove anything either way.
func checkParity(pass *analysis.Pass, cfg *analysis.CFG, fv *forkVar) {
	if fv.escaped {
		return
	}
	reported := map[string]bool{}
	reportOnce := func(key string, pos token.Pos, format string, args ...any) {
		if !reported[key] {
			reported[key] = true
			pass.Reportf(pos, format, args...)
		}
	}

	// nodeUse classifies a CFG node against this fork variable.
	nodeUse := func(n ast.Node) use {
		if n == fv.assign {
			return use{kind: useFork, pos: fv.forkPos}
		}
		u := use{kind: useNone}
		ast.Inspect(n, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			name, recv, ok := trackerMethod(pass, call)
			if !ok {
				return true
			}
			if name == "Merge" && len(call.Args) == 1 {
				if id, isID := ast.Unparen(call.Args[0]).(*ast.Ident); isID && pass.TypesInfo.Uses[id] == fv.obj {
					u = use{kind: useMerge, pos: call.Pos()}
					return false
				}
			}
			if id, isID := recv.(*ast.Ident); isID && pass.TypesInfo.Uses[id] == fv.obj && isCharge(name) {
				u = use{kind: useCharge, pos: call.Pos()}
				return false
			}
			return true
		})
		return u
	}

	// Block-entry state sets; worklist to fixpoint.
	in := make([]int, len(cfg.Blocks))
	in[cfg.Entry.Index] = stUnforked
	work := []*analysis.Block{cfg.Entry}
	for len(work) > 0 {
		blk := work[len(work)-1]
		work = work[:len(work)-1]
		state := in[blk.Index]
		for _, n := range blk.Nodes {
			switch u := nodeUse(n); u.kind {
			case useFork:
				state = stLive
			case useMerge:
				if state&stMerged != 0 {
					reportOnce("double", u.pos, "fork-local tracker %s merged more than once on a path; double-merge double-counts every charge", fv.obj.Name())
				}
				if state&(stLive|stMerged) != 0 {
					state = (state &^ (stLive | stUnforked)) | stMerged
				}
			case useCharge:
				if state&stMerged != 0 {
					reportOnce("late", u.pos, "charge on fork-local tracker %s after it was merged; the parent has already folded this fork, so the charge is lost", fv.obj.Name())
				}
			}
		}
		for _, s := range blk.Succs {
			if in[s.Index]|state != in[s.Index] {
				in[s.Index] |= state
				work = append(work, s)
			}
		}
	}
	if in[cfg.Exit.Index]&stLive != 0 {
		reportOnce("unmerged", fv.forkPos, "vclock.Tracker fork %s is not merged on every path to return; unmerged forks silently drop their workers' charges from Metrics", fv.obj.Name())
	}
}
