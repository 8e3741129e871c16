package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"hybriddb/internal/sim"
)

func TestTableRendering(t *testing.T) {
	tbl := &Table{ID: "x", Title: "demo", Header: []string{"a", "bbbb"}}
	tbl.AddRow("v", 12)
	tbl.AddRow(3.5, time.Millisecond)
	tbl.AddRow(int64(9), 2500*time.Nanosecond)
	var buf bytes.Buffer
	tbl.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"== x: demo ==", "bbbb", "1.00ms", "2.5µs", "3.5"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q:\n%s", want, out)
		}
	}
}

func TestFmtDur(t *testing.T) {
	cases := map[time.Duration]string{
		0:                      "0",
		500 * time.Nanosecond:  "500ns",
		1500 * time.Nanosecond: "1.5µs",
		2 * time.Millisecond:   "2.00ms",
		3 * time.Second:        "3.00s",
	}
	for d, want := range cases {
		if got := fmtDur(d); got != want {
			t.Errorf("fmtDur(%v) = %q, want %q", d, got, want)
		}
	}
}

func TestBucketize(t *testing.T) {
	counts := bucketize([]float64{0.3, 0.6, 1.0, 1.3, 1.8, 3, 7, 100})
	want := []int{1, 1, 1, 1, 1, 1, 1, 1}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("buckets = %v", counts)
		}
	}
	if len(bucketLabels()) != len(counts) {
		t.Fatal("label/bucket mismatch")
	}
}

func TestGeoMean(t *testing.T) {
	if got := geoMean([]float64{2, 8}); got < 3.9 || got > 4.1 {
		t.Errorf("geomean = %v", got)
	}
	if geoMean(nil) != 0 {
		t.Error("empty geomean")
	}
	if geoMean([]float64{-1, 1}) <= 0 {
		t.Error("non-positive values should be clamped")
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"fig1", "fig2", "fig3", "fig4", "fig5", "fig6",
		"table1", "table2", "fig9", "fig10", "fig11", "fig12", "fig13", "ablation"}
	reg := Registry()
	if len(reg) != len(want) {
		t.Fatalf("registry has %d entries", len(reg))
	}
	for i, id := range want {
		if reg[i].ID != id {
			t.Errorf("registry[%d] = %s, want %s", i, reg[i].ID, id)
		}
		if reg[i].Run == nil || reg[i].Title == "" {
			t.Errorf("registry[%d] incomplete", i)
		}
	}
	if _, ok := Find("fig9"); !ok {
		t.Error("Find(fig9) failed")
	}
	if _, ok := Find("nope"); ok {
		t.Error("Find(nope) succeeded")
	}
}

// TestTable2Smoke runs the cheapest full experiment end to end.
func TestTable2Smoke(t *testing.T) {
	tables := Table2(true)
	if len(tables) != 1 || len(tables[0].Rows) != 6 {
		t.Fatalf("table2 = %+v", tables)
	}
	if tables[0].Rows[0][0] != "TPC-DS" {
		t.Errorf("first workload = %s", tables[0].Rows[0][0])
	}
}

// TestFig4Smoke checks the stream-vs-spilling-hash shape end to end on
// tiny data: the CSI must win at few groups and lose once it spills.
func TestFig4Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tables := Fig4(true)
	rows := tables[0].Rows
	if len(rows) < 3 {
		t.Fatalf("fig4 rows = %d", len(rows))
	}
	parse := func(s string) time.Duration {
		d, err := time.ParseDuration(strings.ReplaceAll(s, "µ", "u"))
		if err != nil {
			t.Fatalf("parse %q: %v", s, err)
		}
		return d
	}
	first, last := rows[0], rows[len(rows)-1]
	if parse(first[2]) >= parse(first[1]) {
		t.Errorf("few groups: CSI %s should beat B+ %s", first[2], first[1])
	}
	if parse(last[2]) <= parse(last[1]) {
		t.Errorf("many groups: spilling CSI %s should lose to B+ %s", last[2], last[1])
	}
}

func TestSimLatencyMonotonic(t *testing.T) {
	job := &sim.Job{Name: "j", CPUWork: 4 * time.Millisecond, MaxDOP: 40, IsRead: true}
	l1 := simLatency(job, 1)
	l40 := simLatency(job, 40)
	l160 := simLatency(job, 160)
	if !(l1 < l40 && l40 < l160) {
		t.Errorf("latencies not monotonic: %v %v %v", l1, l40, l160)
	}
	// A serial job is unaffected until cores saturate.
	ser := &sim.Job{Name: "s", CPUWork: time.Millisecond, MaxDOP: 1, IsRead: true}
	s1, s20 := simLatency(ser, 1), simLatency(ser, 20)
	if s20 > s1*3/2 {
		t.Errorf("serial jobs contended below saturation: %v vs %v", s1, s20)
	}
}

// TestFig11Deterministic: the concurrency simulator behind Figure 11
// must break every tie between clients the same way on every run, so
// the rendered tables repeat exactly.
func TestFig11Deterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	render := func() string {
		var sb strings.Builder
		for _, tb := range Fig11(true) {
			tb.Fprint(&sb)
		}
		return sb.String()
	}
	if a, b := render(), render(); a != b {
		t.Fatalf("Fig11(true) rendered differently on two runs:\n%s\n---\n%s", a, b)
	}
}
