//go:build !race

package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateQuick = flag.Bool("update", false, "rewrite testdata/quick.golden from this build")

const quickGoldenPath = "testdata/quick.golden"

// renderQuick runs every registered experiment at quick scale and
// renders its tables as cmd/hybridbench prints them. The only
// wall-clock cells, the time column of ablation-sizeest, are blanked:
// every other cell is virtual time or a count, so it is deterministic.
func renderQuick() []byte {
	var buf bytes.Buffer
	for _, e := range Registry() {
		for _, t := range e.Run(true) {
			if t.ID == "ablation-sizeest" {
				for c, h := range t.Header {
					if h == "time" {
						for _, r := range t.Rows {
							r[c] = "-"
						}
					}
				}
			}
			t.Fprint(&buf)
		}
	}
	return buf.Bytes()
}

// TestQuickGolden pins the quick run of every experiment: a change that
// moves any table cell moves a paper result. Regenerate only with
//
//	go test -run TestQuickGolden -update ./internal/experiments
//
// and review the diff. The run takes about a minute, so the test is
// left out of the race pass.
func TestQuickGolden(t *testing.T) {
	got := renderQuick()
	if *updateQuick {
		if err := os.MkdirAll(filepath.Dir(quickGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(quickGoldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(quickGoldenPath)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("quick run diverges from %s at line %d (regenerate with -update and review the diff)\n  got:  %q\n  want: %q", quickGoldenPath, i+1, g, w)
		}
	}
}
