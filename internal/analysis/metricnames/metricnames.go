// Package metricnames polices registration against the metrics
// registry (internal/metrics):
//
//   - names must be compile-time constants — a name computed at run
//     time (fmt.Sprintf, concatenation with a variable) creates
//     unbounded /metrics cardinality and defeats the registry's
//     idempotent re-registration;
//   - names must be snake_case following the Prometheus convention
//     hybriddb_<subsystem>_<what>_<unit-or-total>: ^[a-z][a-z0-9_]*$;
//   - the same name must not be registered with the process-wide
//     Default registry from two different call sites (the registry
//     would silently return the first metric, so one subsystem's
//     counts vanish into another's).
//
// Duplicate detection is stateful across the packages of one driver
// run, which is why the analyzer is built fresh per run via New.
// Registrations on non-default registries (r.Counter(...)) get the
// shape checks but not the duplicate check: scoped registries (tests,
// benchmarks) may legitimately reuse names.
package metricnames

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"regexp"

	"hybriddb/internal/analysis"
)

// registrars maps registration entry points (in a package whose
// import path ends in "metrics") to whether they target the Default
// registry.
var registrars = map[string]bool{
	// package-level helpers -> Default registry
	"NewCounter": true, "NewGauge": true, "NewGaugeFunc": true, "NewHistogram": true,
	// Registry methods -> whichever registry the receiver is
	"Counter": false, "Gauge": false, "GaugeFunc": false, "Histogram": false,
}

var snakeCase = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// New returns a fresh metricnames analyzer.
func New() *analysis.Analyzer {
	seen := map[string]token.Position{} // Default-registry name -> first site
	a := &analysis.Analyzer{
		Name: "metricnames",
		Doc:  "require constant snake_case metric names and unique Default-registry registrations",
	}
	a.Run = func(pass *analysis.Pass) error {
		// The metrics package itself forwards non-constant names
		// through its helpers (NewCounter calls Default().Counter);
		// the rule applies to registration sites, not the registry's
		// own plumbing.
		if analysis.IsPkg(pass.Pkg, "metrics") {
			return nil
		}
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := analysis.CalleeFunc(pass.TypesInfo, call)
				if fn == nil || !analysis.IsPkg(fn.Pkg(), "metrics") {
					return true
				}
				toDefault, isReg := registrars[fn.Name()]
				if !isReg || len(call.Args) == 0 {
					return true
				}
				pass.Examined()
				// metrics.Default().Counter(...) targets the Default
				// registry through a method call.
				if !toDefault {
					if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
						if recv, ok := ast.Unparen(sel.X).(*ast.CallExpr); ok {
							if rf := analysis.CalleeFunc(pass.TypesInfo, recv); rf != nil &&
								rf.Name() == "Default" && analysis.IsPkg(rf.Pkg(), "metrics") {
								toDefault = true
							}
						}
					}
				}
				arg := call.Args[0]
				tv, ok := pass.TypesInfo.Types[arg]
				if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
					pass.Reportf(arg.Pos(), "metric name passed to metrics.%s is not a compile-time constant; dynamic names explode /metrics cardinality", fn.Name())
					return true
				}
				name := constant.StringVal(tv.Value)
				if !snakeCase.MatchString(name) {
					pass.Reportf(arg.Pos(), "metric name %q is not snake_case (want %s)", name, snakeCase)
					return true
				}
				if toDefault {
					if prev, dup := seen[name]; dup {
						pass.Reportf(arg.Pos(), "metric %q already registered with the Default registry at %s; the second site silently shares the first metric", name, fmtPos(prev))
					} else {
						seen[name] = pass.Fset.Position(arg.Pos())
					}
				}
				return true
			})
		}
		return nil
	}
	return a
}

func fmtPos(p token.Position) string {
	return fmt.Sprintf("%s:%d", p.Filename, p.Line)
}
