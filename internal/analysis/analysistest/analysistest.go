// Package analysistest runs an analyzer over fixture packages and
// checks its diagnostics against // want comments, mirroring
// golang.org/x/tools/go/analysis/analysistest on top of the stdlib-only
// framework in internal/analysis.
//
// Fixtures live in internal/analysis/testdata, which is its own module
// (hybriddb/lintfixtures, with a replace directive back to the repo
// root) so the intentionally buggy code never enters the main module's
// build, vet, or test graph, while still being able to import real
// hybriddb packages such as internal/metrics.
//
// An expectation is written on the line it applies to:
//
//	ch <- 1 // want `while holding`
//
// Each backquoted or double-quoted string is a regexp that must match
// one diagnostic reported by the analyzer on that line; diagnostics
// without a matching want, and wants without a matching diagnostic,
// fail the test. //lint:ignore suppressions are applied before
// matching, so fixtures also lock in the suppression mechanics.
package analysistest

import (
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"hybriddb/internal/analysis"
)

// TestData returns the shared fixture module root
// (internal/analysis/testdata), resolved relative to this source file
// so tests work regardless of working directory.
func TestData() string {
	_, file, _, _ := runtime.Caller(0)
	return filepath.Join(filepath.Dir(file), "..", "testdata")
}

// want is one expectation: a regexp at a file line.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

var wantRE = regexp.MustCompile("(`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\")")

// Run loads the fixture packages matched by patterns (relative to
// dir), applies the analyzer, and reports mismatches against the
// fixtures' want comments.
func Run(t *testing.T, dir string, a *analysis.Analyzer, patterns ...string) {
	t.Helper()
	findings, _, _, err := analysis.RunAnalyzers(dir, []*analysis.Analyzer{a}, patterns)
	if err != nil {
		t.Fatalf("loading fixtures: %v", err)
	}
	wants := collectWants(t, dir, patterns)

	for _, f := range findings {
		if !claim(wants, f) {
			t.Errorf("%s:%d: unexpected diagnostic: %s: %s", f.Pos.Filename, f.Pos.Line, f.Analyzer, f.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %s, got none", w.file, w.line, w.raw)
		}
	}
}

// claim marks the first unmatched want on the finding's line whose
// regexp matches, and reports whether one was found.
func claim(wants []*want, f analysis.Finding) bool {
	for _, w := range wants {
		if !w.matched && w.file == f.Pos.Filename && w.line == f.Pos.Line && w.re.MatchString(f.Message) {
			w.matched = true
			return true
		}
	}
	return false
}

// collectWants re-loads the fixture files and extracts want comments.
// Loading again through analysis.Load keeps the file set consistent
// with diagnostic positions (absolute file names).
func collectWants(t *testing.T, dir string, patterns []string) []*want {
	t.Helper()
	pkgs, err := analysis.Load(dir, patterns...)
	if err != nil {
		t.Fatalf("loading fixtures for wants: %v", err)
	}
	var wants []*want
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text, ok := strings.CutPrefix(strings.TrimPrefix(c.Text, "//"), " want ")
					if !ok {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					for _, m := range wantRE.FindAllString(text, -1) {
						raw := m
						var pat string
						if strings.HasPrefix(m, "`") {
							pat = strings.Trim(m, "`")
						} else {
							pat, err = strconv.Unquote(m)
							if err != nil {
								t.Fatalf("%s:%d: bad want string %s: %v", pos.Filename, pos.Line, m, err)
							}
						}
						re, err := regexp.Compile(pat)
						if err != nil {
							t.Fatalf("%s:%d: bad want regexp %s: %v", pos.Filename, pos.Line, m, err)
						}
						wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re, raw: raw})
					}
				}
			}
		}
	}
	return wants
}
