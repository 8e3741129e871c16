// Package lockorder enforces the engine's lock hierarchy.
//
// The engine has a small, fixed set of mutexes with a required
// acquisition order (outermost first):
//
//	rank 10  session.Manager.mu      (statement boundary lock)
//	rank 15  session.Manager.smu     (session registry / admission lock)
//	rank 20  engine.Database.slowMu  (slow-query log)
//	rank 30  table.Table.statsMu     (per-table statistics)
//	rank 40  storage.Store.mu        (buffer-pool accounting)
//	rank 90  metrics.Registry.mu     (metric registration; leaf)
//
// The statement lock lives in internal/session since the session-core
// refactor and is unexported there; engine call sites acquire it
// through the Manager's Lock/RLock/Unlock/RUnlock wrapper methods
// (db.sm.Lock()). The analyzer matches those wrappers by receiver type
// (see lockAliases) so the rank-10 transitions stay visible at every
// call site, exactly as they were when the field lived on
// engine.Database.
//
// Within one function body the analyzer flags (a) acquiring a
// coarser-or-equal-rank lock while a finer one is held (lock-order
// inversion, including RLock->Lock upgrades of the same mutex, which
// self-deadlock under sync.RWMutex), and (b) blocking operations —
// channel sends/receives/selects, time.Sleep, sync.WaitGroup.Wait,
// sync.Cond.Wait, and os/net I/O calls — while the statement lock or
// the metrics-registry lock is held. Those two locks sit on every
// query's critical path: parking a goroutine under them serializes the
// whole engine, which both breaks the paper's latency measurements and
// (for the registry lock, taken inside metric registration) can
// deadlock against /metrics rendering.
//
// The lock-order rule is intra-procedural and branch-forks through
// if/else and switch arms, so the engine's "RLock or Lock, then defer
// unlock" dispatch pattern does not false-positive. The no-blocking
// rule additionally follows calls ONE level into project-local
// functions (via the shared call graph): a helper that parks the
// goroutine is the same stall as inlining the park under the lock. The
// callee body is scanned with the caller's held set, so a helper that
// releases the lock before blocking stays clean; the diagnostic lands
// at the call site, where the lock is visible. One level is the
// contract, not an accident: deeper graphs (engine.run -> dispatch ->
// exec.Execute) intentionally cross a worker hand-off boundary where
// the statement lock is part of the design.
//
// Lock identity matches on (package path element, type name, field
// name) so the fixture packages under internal/analysis/testdata,
// which mirror the engine's shapes, exercise the same table.
package lockorder

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"

	"hybriddb/internal/analysis"
)

// rankedLock names one mutex in the hierarchy.
type rankedLock struct {
	pkgElem string // last element of the owning package's import path
	typ     string // named type owning the field
	field   string // mutex field name
	rank    int    // smaller = must be acquired first
	desc    string
	noBlock bool // no blocking operations may run while held
}

var hierarchy = []rankedLock{
	{"session", "Manager", "mu", 10, "engine statement lock", true},
	{"session", "Manager", "smu", 15, "session manager lock", true},
	{"engine", "Database", "slowMu", 20, "slow-query log lock", false},
	{"table", "Table", "statsMu", 30, "table statistics lock", false},
	{"storage", "Store", "mu", 40, "buffer-pool lock", false},
	{"metrics", "Registry", "mu", 90, "metrics registry lock", true},
}

// lockAlias maps a type's Lock/RLock/Unlock/RUnlock wrapper methods
// onto the ranked mutex field they forward to, for locks that are
// unexported in their owning package but acquired from outside it.
type lockAlias struct {
	pkgElem string // last element of the receiver's package path
	typ     string // receiver type whose wrapper methods forward
	field   string // hierarchy field the wrappers target
}

var lockAliases = []lockAlias{
	// session.Manager.Lock()/RLock()/... forward to Manager.mu, the
	// statement lock; engine call sites read db.sm.Lock().
	{"session", "Manager", "mu"},
}

// New returns a fresh lockorder analyzer.
func New() *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: "lockorder",
		Doc:  "enforce the engine lock hierarchy and forbid blocking under the statement/registry locks",
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
			w := &walker{pass: pass}
			w.stmts(fn.Body.List, &[]held{})
		}
	}
	return nil
}

// held is one lock the current path holds.
type held struct {
	lock rankedLock
	pos  token.Pos
}

type walker struct {
	pass *analysis.Pass
	// collect, when non-nil, redirects blocking findings into the slice
	// instead of reporting (interprocedural scan of a callee body);
	// lock-order violations are silenced entirely there — they belong
	// to the callee's own package run. collect non-nil also disables
	// further descent, which is what bounds the analysis to one level.
	collect *[]string
}

// stmts walks a statement list linearly, mutating the held set.
func (w *walker) stmts(list []ast.Stmt, h *[]held) {
	for _, s := range list {
		w.stmt(s, h)
	}
}

func (w *walker) stmt(s ast.Stmt, h *[]held) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		w.expr(s.X, h)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.expr(e, h)
		}
		for _, e := range s.Lhs {
			w.expr(e, h)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						w.expr(e, h)
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.expr(e, h)
		}
	case *ast.DeferStmt:
		// A deferred Unlock keeps the lock held to function end, which
		// is exactly what the linear walk models by leaving it in h.
		// Any other deferred call runs after the body; don't walk into
		// it with the current held set.
		if w.lockOf(s.Call, "Unlock", "RUnlock") == nil {
			w.blockingExpr(s.Call, h)
		}
	case *ast.GoStmt:
		// The spawned goroutine runs concurrently; its body starts
		// with an empty held set.
		if fl, ok := s.Call.Fun.(*ast.FuncLit); ok {
			w.stmts(fl.Body.List, &[]held{})
		}
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init, h)
		}
		w.expr(s.Cond, h)
		then := append([]held(nil), *h...)
		w.stmts(s.Body.List, &then)
		els := append([]held(nil), *h...)
		if s.Else != nil {
			w.stmt(s.Else, &els)
		}
		*h = intersect(then, els)
	case *ast.SwitchStmt, *ast.TypeSwitchStmt:
		var body *ast.BlockStmt
		if sw, ok := s.(*ast.SwitchStmt); ok {
			if sw.Init != nil {
				w.stmt(sw.Init, h)
			}
			if sw.Tag != nil {
				w.expr(sw.Tag, h)
			}
			body = sw.Body
		} else {
			ts := s.(*ast.TypeSwitchStmt)
			if ts.Init != nil {
				w.stmt(ts.Init, h)
			}
			body = ts.Body
		}
		out := append([]held(nil), *h...)
		first := true
		for _, c := range body.List {
			cc := c.(*ast.CaseClause)
			branch := append([]held(nil), *h...)
			w.stmts(cc.Body, &branch)
			if first {
				out, first = branch, false
			} else {
				out = intersect(out, branch)
			}
		}
		if !first {
			*h = out
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init, h)
		}
		if s.Cond != nil {
			w.expr(s.Cond, h)
		}
		branch := append([]held(nil), *h...)
		w.stmts(s.Body.List, &branch)
	case *ast.RangeStmt:
		if t, ok := w.pass.TypesInfo.Types[s.X]; ok {
			if _, isChan := t.Type.Underlying().(*types.Chan); isChan {
				w.blocking(s.X.Pos(), "range over channel", h)
			}
		}
		branch := append([]held(nil), *h...)
		w.stmts(s.Body.List, &branch)
	case *ast.BlockStmt:
		w.stmts(s.List, h)
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, h)
	case *ast.SendStmt:
		w.blocking(s.Arrow, "channel send", h)
		w.expr(s.Chan, h)
		w.expr(s.Value, h)
	case *ast.SelectStmt:
		w.blocking(s.Select, "select", h)
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			branch := append([]held(nil), *h...)
			w.stmts(cc.Body, &branch)
		}
	}
}

// expr scans an expression for lock transitions and blocking
// operations (channel receives, blocking calls) in evaluation order.
func (w *walker) expr(e ast.Expr, h *[]held) {
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// A function literal's body executes when called, not here.
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				w.blocking(n.OpPos, "channel receive", h)
			}
		case *ast.CallExpr:
			w.call(n, h)
		}
		return true
	})
}

// call handles one call expression: Lock/Unlock transitions on ranked
// mutexes, and known-blocking callees.
func (w *walker) call(c *ast.CallExpr, h *[]held) {
	if lk := w.lockOf(c, "Lock", "RLock"); lk != nil {
		if w.collect == nil {
			w.pass.Examined()
		}
		for _, held := range *h {
			if held.lock.rank >= lk.rank {
				if w.collect != nil {
					return
				}
				if held.lock == *lk {
					w.pass.Reportf(c.Pos(), "acquiring %s (%s.%s.%s) while already holding it: RWMutex upgrade/recursion self-deadlocks",
						lk.desc, lk.pkgElem, lk.typ, lk.field)
				} else {
					w.pass.Reportf(c.Pos(), "lock order violation: acquiring %s (rank %d) while holding %s (rank %d); the hierarchy requires coarser locks first",
						lk.desc, lk.rank, held.lock.desc, held.lock.rank)
				}
				return
			}
		}
		*h = append(*h, held{lock: *lk, pos: c.Pos()})
		return
	}
	if lk := w.lockOf(c, "Unlock", "RUnlock"); lk != nil {
		for i := len(*h) - 1; i >= 0; i-- {
			if (*h)[i].lock == *lk {
				*h = append((*h)[:i], (*h)[i+1:]...)
				break
			}
		}
		return
	}
	w.blockingExpr(c, h)
	w.descend(c, h)
}

// descend follows a call one level into a project-local callee while a
// no-block lock is held. The callee body is scanned with the caller's
// held set (so a helper that unlocks before parking stays clean) in
// collect mode, and the first blocking operation found is reported at
// the call site.
func (w *walker) descend(c *ast.CallExpr, h *[]held) {
	if w.collect != nil || w.pass.Prog == nil {
		return
	}
	var noBlock *held
	for i := range *h {
		if (*h)[i].lock.noBlock {
			noBlock = &(*h)[i]
			break
		}
	}
	if noBlock == nil {
		return
	}
	pf := w.pass.Prog.FuncOf(analysis.CalleeFunc(w.pass.TypesInfo, c))
	if pf == nil || pf.Decl.Body == nil {
		return
	}
	var found []string
	w2 := &walker{pass: passFor(w.pass, pf), collect: &found}
	h2 := append([]held(nil), *h...)
	w2.stmts(pf.Decl.Body.List, &h2)
	if len(found) > 0 {
		w.pass.Reportf(c.Pos(), "call to %s blocks (%s) while holding %s; this parks every statement behind the lock",
			pf.Fn.Name(), found[0], noBlock.lock.desc)
	}
}

// passFor builds a lookup view over the package that owns a callee's
// declaration; type information never transfers across packages.
func passFor(pass *analysis.Pass, pf *analysis.ProgFunc) *analysis.Pass {
	if pf.Pkg.TypesInfo == pass.TypesInfo {
		return pass
	}
	return &analysis.Pass{
		Analyzer:  pass.Analyzer,
		Fset:      pf.Pkg.Fset,
		Files:     pf.Pkg.Files,
		Pkg:       pf.Pkg.Types,
		TypesInfo: pf.Pkg.TypesInfo,
		Prog:      pass.Prog,
	}
}

// blockingExpr reports c if it is a known-blocking call.
func (w *walker) blockingExpr(c *ast.CallExpr, h *[]held) {
	fn := analysis.CalleeFunc(w.pass.TypesInfo, c)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	pkg, name := fn.Pkg().Path(), fn.Name()
	blocking := ""
	switch {
	case pkg == "time" && name == "Sleep":
		blocking = "time.Sleep"
	case pkg == "sync" && name == "Wait":
		blocking = "sync." + recvTypeName(fn) + ".Wait"
	case pkg == "os" && osIO[name]:
		blocking = "os." + name
	case pkg == "net" || pkg == "net/http":
		blocking = pkg + "." + name
	}
	if blocking != "" {
		w.blocking(c.Pos(), blocking, h)
	}
}

// osIO lists the os package functions and os.File methods that hit the
// filesystem. Process-state accessors (Getenv, Getpid, ...) stay
// allowed under the no-block locks.
var osIO = map[string]bool{
	"Open": true, "OpenFile": true, "Create": true, "CreateTemp": true,
	"ReadFile": true, "WriteFile": true, "ReadDir": true, "Stat": true,
	"Lstat": true, "Remove": true, "RemoveAll": true, "Rename": true,
	"Mkdir": true, "MkdirAll": true, "MkdirTemp": true, "Truncate": true,
	// os.File methods
	"Read": true, "ReadAt": true, "Write": true, "WriteAt": true,
	"WriteString": true, "Sync": true, "Close": true, "Seek": true,
}

// blocking reports a blocking operation if a no-block lock is held (or
// records it, when scanning a callee body for a caller's diagnostic).
func (w *walker) blocking(pos token.Pos, what string, h *[]held) {
	for _, held := range *h {
		if held.lock.noBlock {
			if w.collect != nil {
				*w.collect = append(*w.collect, what)
				return
			}
			w.pass.Reportf(pos, "blocking operation (%s) while holding %s; this parks every statement behind the lock",
				what, held.lock.desc)
			return
		}
	}
}

// lockOf returns the ranked lock a call like db.mu.Lock() targets when
// the method name is one of names and the receiver is a ranked mutex
// field, else nil.
func (w *walker) lockOf(c *ast.CallExpr, names ...string) *rankedLock {
	sel, ok := c.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if !slices.Contains(names, sel.Sel.Name) {
		return nil
	}
	fn, _ := w.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if fn == nil || fn.Pkg() == nil {
		return nil
	}
	if fn.Pkg().Path() != "sync" {
		// Not a sync.Mutex method: check the wrapper-method aliases
		// (e.g. session.Manager.Lock forwarding to Manager.mu).
		elem := analysis.PkgElem(fn.Pkg().Path())
		recv := recvTypeName(fn)
		for _, al := range lockAliases {
			if al.pkgElem == elem && al.typ == recv {
				return findLock(al.pkgElem, al.typ, al.field)
			}
		}
		return nil
	}
	// The mutex expression itself must be a field selector owner.field.
	fsel, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	ownerType := ownerNamed(w.pass.TypesInfo, fsel.X)
	if ownerType == nil || ownerType.Obj().Pkg() == nil {
		return nil
	}
	return findLock(analysis.PkgElem(ownerType.Obj().Pkg().Path()), ownerType.Obj().Name(), fsel.Sel.Name)
}

// findLock looks up a hierarchy entry by identity, nil when unranked.
func findLock(pkgElem, typ, field string) *rankedLock {
	for i := range hierarchy {
		lk := &hierarchy[i]
		if lk.pkgElem == pkgElem && lk.typ == typ && lk.field == field {
			return lk
		}
	}
	return nil
}

// ownerNamed resolves the named type of an expression, unwrapping
// pointers.
func ownerNamed(info *types.Info, e ast.Expr) *types.Named {
	t, ok := info.Types[e]
	if !ok {
		return nil
	}
	typ := t.Type
	if p, ok := typ.(*types.Pointer); ok {
		typ = p.Elem()
	}
	n, _ := typ.(*types.Named)
	return n
}

// recvTypeName names a method's receiver type ("" for functions).
func recvTypeName(fn *types.Func) string {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return ""
	}
	typ := sig.Recv().Type()
	if p, ok := typ.(*types.Pointer); ok {
		typ = p.Elem()
	}
	if n, ok := typ.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// intersect keeps the locks held on both paths, preserving a's order.
func intersect(a, b []held) []held {
	var out []held
	for _, x := range a {
		for _, y := range b {
			if x.lock == y.lock {
				out = append(out, x)
				break
			}
		}
	}
	return out
}
