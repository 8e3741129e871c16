//go:build !race

package experiments

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

var updateQuick = flag.Bool("update", false, "rewrite testdata/quick.golden from this build")

const quickGoldenPath = "testdata/quick.golden"

// renderQuick runs every registered experiment at quick scale and
// renders its tables as cmd/hybridbench prints them. The only
// wall-clock cells, the time column of ablation-sizeest, are blanked:
// every other cell is virtual time or a count, so it is deterministic.
// The tables are returned beside their rendering for checkClaims.
func renderQuick() ([]byte, map[string]*Table) {
	var buf bytes.Buffer
	tables := map[string]*Table{}
	for _, e := range Registry() {
		for _, t := range e.Run(true) {
			tables[t.ID] = t
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
	return buf.Bytes(), tables
}

// TestQuickGolden pins the quick run of every experiment: a change that
// moves any table cell moves a paper result. Regenerate only with
//
//	go test -run TestQuickGolden -update ./internal/experiments
//
// and review the diff. The run takes about a minute, so the test is
// left out of the race pass. The paper's claims checkClaims asserts
// must hold whether or not the golden still matches.
func TestQuickGolden(t *testing.T) {
	got, tables := renderQuick()
	checkClaims(t, tables)
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

// checkClaims asserts the paper's claims that a change of estimates
// (another statistics sample, a cost tweak) could move while the
// golden diff only shows cells changing:
//   - fig1a: at 100 % selectivity CSI hot is at least 10x faster than
//     B+ hot, and the cold B+/CSI crossover is at or above the hot one;
//   - fig13: the crossover does not decrease as clients grow;
//   - ablation-device: the crossover is ordered dram <= ssd <= hdd;
//   - ablation-sizeest: the black-box estimate is within [0.8, 1.25]
//     of the actual size;
//   - ablation-budget: each budgeted design's bytes stay within the
//     budget's share of the unlimited design's bytes;
//   - fig5: at the smallest fraction the primary B+ tree is the
//     cheapest design and the primary CSI the slowest, and the primary
//     CSI's time does not fall as the fraction grows (it locates the
//     rows by one scan, never by one scan per row);
//   - fig6: design A is best with no scans and C worst; B beats
//     A at every mix from their crossover on, and at the last mix.
//   - fig4: the columnstore groups faster than the B+ tree at every
//     group count but the largest, where it spills and the B+ tree
//     wins;
//   - ablation-batchmode: row mode costs at least 5x the CPU of batch
//     mode;
//   - fig10: at least 90 % of Cust2's plan leaves are columnstores.
func checkClaims(t *testing.T, tables map[string]*Table) {
	t.Helper()
	table := func(id string) *Table {
		if tables[id] == nil {
			t.Fatalf("claims: no table %s", id)
		}
		return tables[id]
	}
	cell := func(id, row, col string) float64 {
		tb := table(id)
		c := -1
		for i, h := range tb.Header {
			if h == col {
				c = i
			}
		}
		for _, r := range tb.Rows {
			if r[0] == row && c >= 0 {
				return cellValue(t, r[c])
			}
		}
		t.Fatalf("claims: %s has no cell (%s, %s)", id, row, col)
		return 0
	}
	rows := func(id string) []string {
		var out []string
		for _, r := range table(id).Rows {
			out = append(out, r[0])
		}
		return out
	}

	if csi, bp := cell("fig1a", "100", "CSI hot"), cell("fig1a", "100", "B+ hot"); csi*10 > bp {
		t.Errorf("claims: fig1a at 100%%: CSI hot %v is not 10x faster than B+ hot %v", csi, bp)
	}
	// The crossover is the lowest selectivity from which on CSI is no
	// slower than B+ at every selectivity.
	crossover := func(csiCol, bpCol string) float64 {
		sels := rows("fig1a")
		x := math.Inf(1)
		for i := len(sels) - 1; i >= 0 && cell("fig1a", sels[i], csiCol) <= cell("fig1a", sels[i], bpCol); i-- {
			x = cellValue(t, sels[i])
		}
		return x
	}
	if cold, hot := crossover("CSI cold", "B+ cold"), crossover("CSI hot", "B+ hot"); cold < hot {
		t.Errorf("claims: fig1a cold crossover %v%% lies below the hot one %v%%", cold, hot)
	}
	prev := math.Inf(-1)
	for _, clients := range rows("fig13") {
		x := cell("fig13", clients, "crossover sel%")
		if x < prev {
			t.Errorf("claims: fig13 crossover falls to %v%% at %s clients", x, clients)
		}
		prev = x
	}
	dram, ssd, hdd := cell("ablation-device", "dram", "crossover sel%"),
		cell("ablation-device", "ssd", "crossover sel%"), cell("ablation-device", "hdd", "crossover sel%")
	if dram > ssd || ssd > hdd {
		t.Errorf("claims: ablation-device crossovers dram %v, ssd %v, hdd %v are not ordered", dram, ssd, hdd)
	}
	if r := cell("ablation-sizeest", "black-box", "ratio"); r < 0.8 || r > 1.25 {
		t.Errorf("claims: ablation-sizeest black-box ratio %v outside [0.8, 1.25]", r)
	}
	fracs := rows("fig5")
	bp, sec, pri := cell("fig5", fracs[0], "Pri B+tree"), cell("fig5", fracs[0], "B+tree + sec CSI"), cell("fig5", fracs[0], "Pri CSI")
	if bp > sec || bp > pri || pri < sec {
		t.Errorf("claims: fig5 at %s%%: Pri B+tree %v, B+tree + sec CSI %v, Pri CSI %v: want B+ cheapest and Pri CSI slowest", fracs[0], bp, sec, pri)
	}
	for i := 1; i < len(fracs); i++ {
		if prev, cur := cell("fig5", fracs[i-1], "Pri CSI"), cell("fig5", fracs[i], "Pri CSI"); cur < prev {
			t.Errorf("claims: fig5 Pri CSI falls from %v at %s%% to %v at %s%%", prev, fracs[i-1], cur, fracs[i])
		}
	}
	mixes := rows("fig6")
	const colA, colB, colC = "A: pri B+tree", "B: + sec CSI", "C: pri CSI"
	if a, b, c := cell("fig6", mixes[0], colA), cell("fig6", mixes[0], colB), cell("fig6", mixes[0], colC); a > b || a > c || c < b {
		t.Errorf("claims: fig6 at %s: A %v, B %v, C %v: want A best and C worst", mixes[0], a, b, c)
	}
	crossed := false
	for i, mix := range mixes {
		a, b := cell("fig6", mix, colA), cell("fig6", mix, colB)
		if b >= a && (crossed || i == len(mixes)-1) {
			t.Errorf("claims: fig6 at %s: B %v does not beat A %v", mix, b, a)
		}
		crossed = crossed || b < a
	}
	groups := rows("fig4")
	for i, g := range groups {
		bt, csi := cell("fig4", g, "B+ tree"), cell("fig4", g, "CSI")
		if last := i == len(groups)-1; last && (bt >= csi || cell("fig4", g, "CSI spilled(MB)") == 0) {
			t.Errorf("claims: fig4 at %s groups: B+ tree %v does not beat the spilling CSI %v", g, bt, csi)
		} else if !last && csi >= bt {
			t.Errorf("claims: fig4 at %s groups: CSI %v is not faster than B+ tree %v", g, csi, bt)
		}
	}
	if row, batch := cell("ablation-batchmode", "row mode", "cpu"), cell("ablation-batchmode", "batch mode", "cpu"); row < 5*batch {
		t.Errorf("claims: ablation-batchmode: row-mode CPU %v is under 5x batch-mode CPU %v", row, batch)
	}
	if share := cell("fig10", "Cust2", "CSI leaves%"); share < 90 {
		t.Errorf("claims: fig10 Cust2 CSI leaf share %v%% is under 90%%", share)
	}
	unlimited := cell("ablation-budget", "unlimited", "bytes (MB)")
	for _, budget := range rows("ablation-budget")[1:] {
		share := cellValue(t, budget) / 100
		if b := cell("ablation-budget", budget, "bytes (MB)"); b > share*unlimited {
			t.Errorf("claims: ablation-budget %s uses %v MB, over %v of %v MB", budget, b, share, unlimited)
		}
	}
}

// cellValue parses a rendered cell: a duration (in seconds), a count
// or ratio with an optional trailing "%" or "x", or a crossover that
// was not found (">N", read as +Inf).
func cellValue(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSpace(s)
	if strings.HasPrefix(s, ">") {
		return math.Inf(1)
	}
	if d, err := time.ParseDuration(s); err == nil {
		return d.Seconds()
	}
	f, err := strconv.ParseFloat(strings.TrimRight(s, "%x"), 64)
	if err != nil {
		t.Fatalf("claims: cell %q is not a number", s)
	}
	return f
}
