package analysis_test

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"hybriddb/internal/analysis"
)

// dummy flags every package-level var declaration; the framework
// fixture suppresses one and leaves one flagged.
func dummy() *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: "framework-dummy",
		Doc:  "test analyzer: flags var declarations",
		Run: func(pass *analysis.Pass) error {
			for _, f := range pass.Files {
				for _, decl := range f.Decls {
					if gd, ok := decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
						pass.Examined()
						pass.Reportf(gd.Pos(), "var declaration")
					}
				}
			}
			return nil
		},
	}
}

func testdata(t *testing.T) string {
	t.Helper()
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("no caller info")
	}
	return filepath.Join(filepath.Dir(file), "testdata")
}

func TestSuppressionAndMalformed(t *testing.T) {
	findings, suppressed, examined, err := analysis.RunAnalyzers(testdata(t), []*analysis.Analyzer{dummy()}, []string{"./src/framework"})
	if err != nil {
		t.Fatal(err)
	}
	// Findings: flaggedVar, malformedIgnoreAbove's var, wrongAnalyzerVar,
	// malformedBlockAbove's var, plus the two malformed lint comments
	// themselves. Suppressed: the line-comment, block-comment,
	// multi-line-block, and comma-list vars.
	var msgs []string
	for _, f := range findings {
		msgs = append(msgs, f.Analyzer+": "+f.Message)
	}
	if len(findings) != 6 {
		t.Fatalf("got %d findings, want 6: %v", len(findings), msgs)
	}
	malformed := 0
	for _, f := range findings {
		if f.Analyzer == "lint" && strings.Contains(f.Message, "malformed lint:ignore") {
			malformed++
		}
	}
	if malformed != 2 {
		t.Errorf("got %d malformed-ignore findings, want 2: %v", malformed, msgs)
	}
	if len(suppressed) != 4 {
		t.Fatalf("got %d suppressed, want 4", len(suppressed))
	}
	if examined["framework-dummy"] != 8 {
		t.Errorf("examined = %v, want 8 var declarations", examined)
	}
	for _, f := range suppressed {
		if !strings.Contains(f.Message, "var declaration") {
			t.Errorf("suppressed finding = %q", f.Message)
		}
	}
}

func TestMainExitCodes(t *testing.T) {
	var out, errOut bytes.Buffer
	td := testdata(t)

	if code := analysis.Main(&out, &errOut, []*analysis.Analyzer{dummy()}, []string{"-list"}); code != analysis.ExitClean {
		t.Fatalf("-list exit = %d, want %d", code, analysis.ExitClean)
	}
	if !strings.Contains(out.String(), "framework-dummy") {
		t.Fatalf("-list output missing analyzer: %q", out.String())
	}

	out.Reset()
	errOut.Reset()
	code := analysis.Main(&out, &errOut, []*analysis.Analyzer{dummy()}, []string{"-dir", td, "./src/framework"})
	if code != analysis.ExitDiags {
		t.Fatalf("diagnostics exit = %d, want %d\nstdout: %s\nstderr: %s", code, analysis.ExitDiags, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "framework-dummy: var declaration") {
		t.Errorf("missing diagnostic line: %q", out.String())
	}
	if !strings.Contains(errOut.String(), "4 suppressed") {
		t.Errorf("missing suppression count: %q", errOut.String())
	}

	// A clean package (no findings, no malformed ignores) exits 0.
	out.Reset()
	errOut.Reset()
	clean := &analysis.Analyzer{Name: "noop", Doc: "reports nothing", Run: func(*analysis.Pass) error { return nil }}
	if code := analysis.Main(&out, &errOut, []*analysis.Analyzer{clean}, []string{"-dir", td, "./src/lockorder/metrics"}); code != analysis.ExitClean {
		t.Fatalf("clean exit = %d, want %d\nstderr: %s", code, analysis.ExitClean, errOut.String())
	}

	// An unresolvable pattern is a load error, not a diagnostic.
	out.Reset()
	errOut.Reset()
	if code := analysis.Main(&out, &errOut, []*analysis.Analyzer{clean}, []string{"-dir", td, "./src/definitely-missing"}); code != analysis.ExitError {
		t.Fatalf("load-error exit = %d, want %d", code, analysis.ExitError)
	}
}

// -json emits every diagnostic (suppressed ones marked) as one array;
// -counts writes the totals the budget gate consumes. Exit codes are
// unchanged by either flag.
func TestMainJSONAndCounts(t *testing.T) {
	var out, errOut bytes.Buffer
	countsPath := filepath.Join(t.TempDir(), "nested", "lint-counts.txt")
	code := analysis.Main(&out, &errOut, []*analysis.Analyzer{dummy()},
		[]string{"-dir", testdata(t), "-json", "-counts", countsPath, "./src/framework"})
	if code != analysis.ExitDiags {
		t.Fatalf("exit = %d, want %d\nstderr: %s", code, analysis.ExitDiags, errOut.String())
	}

	var got []struct {
		File       string `json:"file"`
		Line       int    `json:"line"`
		Col        int    `json:"col"`
		Analyzer   string `json:"analyzer"`
		Message    string `json:"message"`
		Suppressed bool   `json:"suppressed"`
	}
	if err := json.Unmarshal(out.Bytes(), &got); err != nil {
		t.Fatalf("-json output is not a JSON array: %v\n%s", err, out.String())
	}
	unsuppressed, suppressed := 0, 0
	for _, f := range got {
		if f.File == "" || f.Line <= 0 || f.Analyzer == "" || f.Message == "" {
			t.Errorf("incomplete JSON finding: %+v", f)
		}
		if f.Suppressed {
			suppressed++
		} else {
			unsuppressed++
		}
	}
	if unsuppressed != 6 || suppressed != 4 {
		t.Errorf("got %d unsuppressed / %d suppressed, want 6/4", unsuppressed, suppressed)
	}

	counts, err := os.ReadFile(countsPath)
	if err != nil {
		t.Fatalf("counts file: %v", err)
	}
	if want := "unsuppressed 6\nsuppressed 4\nexamined framework-dummy 8\n"; string(counts) != want {
		t.Errorf("counts = %q, want %q", counts, want)
	}
}
