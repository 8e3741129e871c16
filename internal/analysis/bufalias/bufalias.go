// Package bufalias guards the batch executor's scratch-buffer
// ownership discipline.
//
// Batch operators reuse selection and row buffers across NextBatch
// calls (scan_batch.go's selBuf ping-pong, the scratch composite row):
// the contract is that a batch's contents are valid only until the
// producer's next call, and only on the producing goroutine. A scratch
// buffer that escapes its owner — captured by a spawned goroutine,
// sent over a channel, or returned from an exported function — will be
// overwritten while someone else still reads it, silently corrupting
// result rows (the nastiest possible failure for a paper whose claims
// rest on measured result correctness).
//
// A "scratch field" is any slice-bearing struct field declared in the
// analyzed package whose name contains "scratch" or "buf" (case
// insensitive) — selBuf, scratch, keyBuf all match — or any unexported
// field with a "sel" prefix (sel, selVec, selIdx): selection vectors
// produced by the predicate kernels are reused batch to batch exactly
// like scratch rows. "Slice-bearing" is transitive: a struct or
// pointer-to-struct field whose type carries a slice anywhere inside
// aliases that slice on shallow copy, so it counts too. Exported Sel
// fields (vec.Batch.Sel) are the documented public hand-off surface,
// not private scratch, and stay exempt.
//
// Batch handles get the same treatment regardless of name: any
// unexported field whose (pointer-dereferenced) named type contains
// "batch" — vec.Batch, SlotBatch, BatchCursor, csiBatchSource — is a
// reuse-scoped buffer, because every batch producer recycles its
// vectors and selection on the next call and BatchCursor itself is a
// single-owner pull handle. The analyzer flags, anywhere in the
// package:
//
//   - a go statement whose call or closure references a scratch field,
//     and likewise the worker function handed to exec.spawn, the one
//     place the executor starts goroutines;
//   - a channel send whose value references a scratch field;
//   - a return of a scratch field from an exported function or method
//     (unexported helpers like nextSel hand the buffer to their own
//     operator, which is the intended reuse).
//
// Two exported method names are exempt from the return check: NextBatch
// (the BatchCursor boundary) and Batch (the colstore Scanner accessor).
// Both ARE the documented hand-off surface — their contract that the
// result is valid only until the next call is the reuse discipline this
// analyzer protects, not a violation of it.
package bufalias

import (
	"go/ast"
	"go/types"
	"strings"

	"hybriddb/internal/analysis"
)

// New returns a fresh bufalias analyzer.
func New() *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: "bufalias",
		Doc:  "forbid reused scratch/selection buffers from escaping their owning operator",
		Run:  run,
	}
}

func run(pass *analysis.Pass) error {
	for _, obj := range pass.TypesInfo.Defs {
		if v, ok := obj.(*types.Var); ok && v.IsField() && scratchVar(v) {
			pass.Examined() // the subjects: scratch fields this package owns
		}
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			exported := fn.Name.IsExported()
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.GoStmt, *ast.CallExpr:
					var body ast.Node = n
					if call, ok := n.(*ast.CallExpr); ok {
						// The worker function handed to exec.spawn is a
						// goroutine body; no other call is.
						callee := analysis.CalleeFunc(pass.TypesInfo, call)
						if callee == nil || callee.Name() != "spawn" || !analysis.IsPkg(callee.Pkg(), "exec") || len(call.Args) < 2 {
							return true
						}
						body = call.Args[1]
					}
					if sel := scratchRef(pass, body); sel != nil {
						pass.Reportf(n.Pos(), "scratch buffer %s escapes to a goroutine; it is overwritten by the owner's next batch", fieldName(pass, sel))
					}
					return false // reported once for the whole go statement
				case *ast.SendStmt:
					if sel := scratchRefExpr(pass, n.Value); sel != nil {
						pass.Reportf(sel.Pos(), "scratch buffer %s sent over a channel; the receiver races the owner's reuse", fieldName(pass, sel))
					}
				case *ast.ReturnStmt:
					if !exported || batchBoundary(fn.Name.Name) {
						return true
					}
					for _, res := range n.Results {
						if sel := scratchRefExpr(pass, res); sel != nil {
							pass.Reportf(sel.Pos(), "scratch buffer %s returned from exported %s; callers outlive the buffer's validity window", fieldName(pass, sel), fn.Name.Name)
						}
					}
				}
				return true
			})
		}
	}
	return nil
}

// fieldName renders a flagged selector as owner.field for messages.
func fieldName(pass *analysis.Pass, sel *ast.SelectorExpr) string {
	if s, ok := pass.TypesInfo.Selections[sel]; ok {
		if recv := s.Recv(); recv != nil {
			t := recv
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if n, ok := t.(*types.Named); ok {
				return n.Obj().Name() + "." + sel.Sel.Name
			}
		}
	}
	return sel.Sel.Name
}

// scratchRef finds a scratch-field selector anywhere under n.
func scratchRef(pass *analysis.Pass, n ast.Node) *ast.SelectorExpr {
	var found *ast.SelectorExpr
	ast.Inspect(n, func(m ast.Node) bool {
		if found != nil {
			return false
		}
		if sel, ok := m.(*ast.SelectorExpr); ok && isScratchField(pass, sel) {
			found = sel
			return false
		}
		return true
	})
	return found
}

// scratchRefExpr is scratchRef limited to one expression (nil-safe).
func scratchRefExpr(pass *analysis.Pass, e ast.Expr) *ast.SelectorExpr {
	if e == nil {
		return nil
	}
	return scratchRef(pass, e)
}

// batchBoundary reports whether an exported method name is a
// documented batch hand-off surface, whose returned buffer is
// contractually valid only until the next call.
func batchBoundary(name string) bool {
	return name == "NextBatch" || name == "Batch"
}

// isScratchField reports whether sel selects a scratch buffer field
// declared in the analyzed package.
func isScratchField(pass *analysis.Pass, sel *ast.SelectorExpr) bool {
	s, ok := pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return false
	}
	field, ok := s.Obj().(*types.Var)
	return ok && field.Pkg() == pass.Pkg && scratchVar(field)
}

// scratchVar classifies a struct field: batch-typed, or slice-bearing
// with a scratch-ish name.
func scratchVar(field *types.Var) bool {
	return batchTyped(field) || scratchName(field.Name(), field.Exported()) && carriesSlice(field.Type(), nil)
}

// batchTyped reports whether field is an unexported handle to a batch:
// its type, after one pointer dereference, is a named type (struct or
// interface) whose name contains "batch". Batch contents are valid
// only until the producer's next call, and a BatchCursor is a
// single-owner pull handle, so both escape hazards apply independent
// of the field's own name.
func batchTyped(field *types.Var) bool {
	if field.Exported() {
		return false
	}
	t := field.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && strings.Contains(strings.ToLower(n.Obj().Name()), "batch")
}

// scratchName matches the naming convention for reusable buffers:
// scratch/buf anywhere, or an unexported sel prefix (selection
// vectors).
func scratchName(name string, exported bool) bool {
	l := strings.ToLower(name)
	if strings.Contains(l, "scratch") || strings.Contains(l, "buf") {
		return true
	}
	return !exported && strings.HasPrefix(l, "sel")
}

// carriesSlice reports whether t is, or contains (through arrays,
// structs, and pointers), a slice: []int, [2][]int, and a struct with
// a slice field all qualify — shallow-copying any of them keeps the
// inner slice header aliased to the original backing array. seen
// guards against recursive types (a *node linked through itself).
func carriesSlice(t types.Type, seen map[types.Type]bool) bool {
	if seen[t] {
		return false
	}
	if seen == nil {
		seen = map[types.Type]bool{}
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Slice:
		return true
	case *types.Array:
		return carriesSlice(u.Elem(), seen)
	case *types.Pointer:
		return carriesSlice(u.Elem(), seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if carriesSlice(u.Field(i).Type(), seen) {
				return true
			}
		}
	}
	return false
}
