package analysis

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// Exit codes, modeled on go vet: 0 clean, 1 unsuppressed diagnostics,
// 2 usage, load, or internal error.
const (
	ExitClean = 0
	ExitDiags = 1
	ExitError = 2
)

// Finding is one resolved diagnostic: the analyzer that produced it
// plus its printable source position.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// RunAnalyzers loads the packages matched by patterns (relative to
// dir) and applies every analyzer to each, returning unsuppressed and
// suppressed findings separately, plus the number of subjects each
// analyzer examined (Pass.Examined) summed over the packages. Packages
// run in sorted import-path order and analyzers in slice order, so
// output is stable run to run.
func RunAnalyzers(dir string, analyzers []*Analyzer, patterns []string) (findings, suppressed []Finding, examined map[string]int, err error) {
	pkgs, err := Load(dir, patterns...)
	if err != nil {
		return nil, nil, nil, err
	}
	prog := NewProgram(pkgs)
	examined = map[string]int{}
	for _, pkg := range pkgs {
		sup := BuildSuppressions(pkg)
		for _, d := range sup.Malformed {
			findings = append(findings, Finding{Analyzer: "lint", Pos: pkg.Fset.Position(d.Pos), Message: d.Message})
		}
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				Prog:      prog,
			}
			if err := a.Run(pass); err != nil {
				return nil, nil, nil, fmt.Errorf("%s: %s: %v", a.Name, pkg.ImportPath, err)
			}
			examined[a.Name] += pass.examined
			for _, d := range pass.diags {
				f := Finding{Analyzer: a.Name, Pos: pkg.Fset.Position(d.Pos), Message: d.Message}
				if sup.Suppressed(a.Name, f.Pos) {
					suppressed = append(suppressed, f)
				} else {
					findings = append(findings, f)
				}
			}
		}
	}
	sortFindings(findings)
	sortFindings(suppressed)
	return findings, suppressed, examined, nil
}

func sortFindings(fs []Finding) {
	sort.SliceStable(fs, func(i, j int) bool {
		if fs[i].Pos.Filename != fs[j].Pos.Filename {
			return fs[i].Pos.Filename < fs[j].Pos.Filename
		}
		if fs[i].Pos.Line != fs[j].Pos.Line {
			return fs[i].Pos.Line < fs[j].Pos.Line
		}
		return fs[i].Pos.Column < fs[j].Pos.Column
	})
}

// posString renders a finding position relative to cwd when that is
// shorter, matching go vet's output style.
func posString(pos token.Position, cwd string) string {
	name := pos.Filename
	if cwd != "" {
		if rel, err := filepath.Rel(cwd, name); err == nil && len(rel) < len(name) {
			name = rel
		}
	}
	return fmt.Sprintf("%s:%d:%d", name, pos.Line, pos.Column)
}

// Main is the multichecker entry point behind cmd/hybridlint. It
// parses args (flags plus package patterns, default ./...), runs the
// suite, prints file:line:col: analyzer: message lines to out, and
// returns the process exit code.
func Main(out, errOut io.Writer, analyzers []*Analyzer, args []string) int {
	fs := flag.NewFlagSet("hybridlint", flag.ContinueOnError)
	fs.SetOutput(errOut)
	list := fs.Bool("list", false, "list analyzers and exit")
	showSuppressed := fs.Bool("show-suppressed", false, "also print suppressed diagnostics (marked, not counted)")
	dir := fs.String("dir", ".", "directory to resolve package patterns in")
	jsonOut := fs.Bool("json", false, "emit diagnostics as a JSON array (suppressed ones included, marked)")
	countsPath := fs.String("counts", "", "write `unsuppressed N / suppressed M / examined <analyzer> K` counts to this file (for the lint budget gate)")
	fs.Usage = func() {
		fmt.Fprintf(errOut, "usage: hybridlint [flags] [packages]\n\nhybriddb engine-invariant checks. Suppress a finding with\n`//lint:ignore <analyzer> <reason>` on or above the flagged line.\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return ExitError
	}
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(out, "%-12s %s\n", a.Name, a.Doc)
		}
		return ExitClean
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	findings, suppressed, examined, err := RunAnalyzers(*dir, analyzers, patterns)
	if err != nil {
		fmt.Fprintf(errOut, "hybridlint: %v\n", err)
		return ExitError
	}
	if *countsPath != "" {
		if err := writeCounts(*countsPath, len(findings), len(suppressed), analyzers, examined); err != nil {
			fmt.Fprintf(errOut, "hybridlint: %v\n", err)
			return ExitError
		}
	}
	cwd, _ := os.Getwd()
	if *jsonOut {
		if err := writeJSON(out, findings, suppressed); err != nil {
			fmt.Fprintf(errOut, "hybridlint: %v\n", err)
			return ExitError
		}
	} else {
		for _, f := range findings {
			fmt.Fprintf(out, "%s: %s: %s\n", posString(f.Pos, cwd), f.Analyzer, f.Message)
		}
		if *showSuppressed {
			for _, f := range suppressed {
				fmt.Fprintf(out, "%s: %s: %s (suppressed)\n", posString(f.Pos, cwd), f.Analyzer, f.Message)
			}
		}
	}
	if n := len(findings); n > 0 {
		fmt.Fprintf(errOut, "hybridlint: %d diagnostic(s), %d suppressed\n", n, len(suppressed))
		return ExitDiags
	}
	if len(suppressed) > 0 {
		fmt.Fprintf(errOut, "hybridlint: clean (%d suppressed)\n", len(suppressed))
	}
	return ExitClean
}

// jsonFinding is the -json wire shape: one object per diagnostic,
// suppressed ones included and marked, so CI tooling (the problem
// matcher consumes the text form; dashboards consume this) never needs
// to parse the human format.
type jsonFinding struct {
	File       string `json:"file"`
	Line       int    `json:"line"`
	Col        int    `json:"col"`
	Analyzer   string `json:"analyzer"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed"`
}

func writeJSON(out io.Writer, findings, suppressed []Finding) error {
	all := make([]jsonFinding, 0, len(findings)+len(suppressed))
	for _, f := range findings {
		all = append(all, jsonFinding{File: f.Pos.Filename, Line: f.Pos.Line, Col: f.Pos.Column, Analyzer: f.Analyzer, Message: f.Message})
	}
	for _, f := range suppressed {
		all = append(all, jsonFinding{File: f.Pos.Filename, Line: f.Pos.Line, Col: f.Pos.Column, Analyzer: f.Analyzer, Message: f.Message, Suppressed: true})
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(all)
}

// writeCounts records the run's totals for scripts/check_lint_budget.sh,
// which diffs the suppressed line against the committed LINT_BUDGET and
// fails on an analyzer that examined nothing.
func writeCounts(path string, unsuppressed, suppressed int, analyzers []*Analyzer, examined map[string]int) error {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	counts := fmt.Appendf(nil, "unsuppressed %d\nsuppressed %d\n", unsuppressed, suppressed)
	for _, a := range analyzers {
		counts = fmt.Appendf(counts, "examined %s %d\n", a.Name, examined[a.Name])
	}
	return os.WriteFile(path, counts, 0o644)
}
