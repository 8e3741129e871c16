package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"hybriddb/internal/engine"
	"hybriddb/internal/value"
	"hybriddb/internal/vclock"
	"hybriddb/internal/wire"
)

// updateTiny rewrites the tiny-scale section of the goldens:
//
//	go test -run TestWorkloadsAtTinyScale -update-golden
var updateTiny = flag.Bool("update-golden", false, "rewrite the tiny-scale goldens in testdata/golden-seed1.json")

// TestWorkloadsAtTinyScale runs all four workloads, traced, at the tiny
// scale and checks the shape of what comes out: every metric that
// applies to the workload exactly once, every answer right, and a trace
// whose parents resolve.
func TestWorkloadsAtTinyScale(t *testing.T) {
	goldens, err := loadGoldens()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	r := &runner{seed: goldenSeed, sc: tinyScale(), traced: true, outDir: dir,
		goldens: goldens, updateGolden: *updateTiny}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			res, err := r.run(name)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || !res.Correct {
				t.Errorf("%d of %d operations failed: %q", res.Failed, res.Attempted, res.Failures)
			}
			var want []string
			for _, m := range endToEnd {
				if m.appliesTo(name) {
					want = append(want, m.Name)
				}
			}
			checkMetricSet(t, "end-to-end", want, endToEnd, res.EndToEnd)
			want = nil
			for _, m := range perLayer {
				want = append(want, m.Name)
			}
			checkMetricSet(t, "per-layer", want, perLayer, res.PerLayer)
			for _, m := range endToEnd {
				if m.Gate > 0 && res.EndToEnd[m.Name].Value <= 0 {
					t.Errorf("gated metric %s = %v, must be positive on every workload", m.Name, res.EndToEnd[m.Name].Value)
				}
			}
			checkTrace(t, filepath.Join(dir, "trace-"+name+".jsonl"), name, workloadDefs[name].wire)
		})
	}
	if *updateTiny {
		if err := writeGoldens(goldens); err != nil {
			t.Fatal(err)
		}
	}
}

// checkMetricSet checks that got has exactly the wanted names, each
// with its catalogue unit.
func checkMetricSet(t *testing.T, what string, want []string, specs []metricSpec, got map[string]metricValue) {
	t.Helper()
	units := map[string]string{}
	for _, m := range specs {
		units[m.Name] = m.Unit
	}
	var names []string
	for name, v := range got {
		names = append(names, name)
		if v.Unit != units[name] {
			t.Errorf("%s metric %s has unit %q, catalogue says %q", what, name, v.Unit, units[name])
		}
	}
	slices.Sort(names)
	slices.Sort(want)
	if !slices.Equal(names, want) {
		t.Errorf("%s metrics:\n got  %q\n want %q", what, names, want)
	}
}

// checkTrace reads a trace file back: ids are unique, parents resolve
// within the same statement, self times are not negative, and a child
// that ran inside its parent's call lies inside its parent's interval.
func checkTrace(t *testing.T, path, workload string, wireWorkload bool) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	spans := map[int]span{}
	names := map[string]int{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if _, dup := spans[s.ID]; dup {
			t.Fatalf("span id %d twice", s.ID)
		}
		spans[s.ID] = s
		names[s.Name]++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, s := range spans {
		if s.Attrs.Workload != workload {
			t.Errorf("span %d: workload %q", s.ID, s.Attrs.Workload)
		}
		if s.End < s.Start {
			t.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.SelfNS < 0 {
			t.Errorf("span %d (%s): self time %d", s.ID, s.Name, s.SelfNS)
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := spans[s.Parent]
		if !ok {
			t.Errorf("span %d (%s): parent %d does not exist", s.ID, s.Name, s.Parent)
			continue
		}
		if p.Trace != s.Trace {
			t.Errorf("span %d (%s) of statement %d hangs under statement %d", s.ID, s.Name, s.Trace, p.Trace)
		}
		// wire.server is timed on the server's side of the socket and
		// shortened to its busy time, so it only has to start inside.
		replayed := s.Attrs.Twin || s.Attrs.Shadow || s.Attrs.Probe
		if !replayed && (s.Start < p.Start || (s.Name != spanServer && s.End > p.End)) {
			t.Errorf("span %d (%s) [%d,%d] is not inside its parent %s [%d,%d]", s.ID, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
	}
	want := []string{spanStmt, spanParse, spanBind, spanOptimize, spanExecute, spanExecStmt, spanNormalize, spanRecord}
	if wireWorkload {
		want = append(want, spanClientExec, spanServer, spanEncode, spanDecode)
	}
	for _, n := range want {
		if names[n] == 0 {
			t.Errorf("trace has no %s span", n)
		}
	}
}

// benchmarkJSON is BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatchesCatalogue keeps BENCHMARK.json and spec.go
// saying the same thing.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, -seconds defaults to %d", bj.RunSeconds, defaultSeconds)
	}
	if len(bj.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads, want %d", len(bj.Workloads), len(workloadNames))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: %q, want %q", i, w.Name, workloadNames[i])
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	var gated []metricSpec
	for _, m := range endToEnd {
		if m.Gate > 0 {
			gated = append(gated, m)
		}
	}
	if len(bj.EndToEnd) != len(gated) {
		t.Fatalf("%d end_to_end metrics, catalogue gates %d", len(bj.EndToEnd), len(gated))
	}
	for i, m := range bj.EndToEnd {
		g := gated[i]
		if m.Name != g.Name || m.Unit != g.Unit || m.Better != g.Better || m.Bound != g.Gate {
			t.Errorf("end_to_end %d: %+v, catalogue %+v", i, m, g)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("%d per_layer metrics, catalogue has %d", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range bj.PerLayer {
		p := perLayer[i]
		if m.Name != p.Name || m.Unit != p.Unit || m.Better != p.Better {
			t.Errorf("per_layer %d: %+v, catalogue %+v", i, m, p)
		}
	}
}

func TestDigest(t *testing.T) {
	rows := []value.Row{
		{value.NewInt(1), value.NewString("a"), value.NewFloat(0.1)},
		{value.NewInt(2), value.NewString("b"), value.NewFloat(0.2)},
		{value.NewInt(3), value.Null, value.NewFloat(0.3)},
	}
	swapped := []value.Row{rows[2], rows[0], rows[1]}
	if a, b := digestRows(rows, false), digestRows(swapped, false); !a.equal(b) {
		t.Errorf("unordered digest depends on row order: %v vs %v", a, b)
	}
	if a, b := digestRows(rows, true), digestRows(swapped, true); a.equal(b) {
		t.Errorf("ordered digest ignores row order: %v", a)
	}
	// A sum taken in another order differs in its last bits only.
	nudged := []value.Row{rows[0], rows[1], {value.NewInt(3), value.Null, value.NewFloat(0.1 + 0.2)}}
	if a, b := digestRows(rows, false), digestRows(nudged, false); !a.equal(b) {
		t.Errorf("digest does not tolerate a last-bit float difference: %v vs %v", a, b)
	}
	wrong := []value.Row{rows[0], rows[1], {value.NewInt(3), value.Null, value.NewFloat(0.3001)}}
	if a, b := digestRows(rows, false), digestRows(wrong, false); a.equal(b) {
		t.Errorf("digest misses a changed float: %v", a)
	}
	// Floats moving between rows change the weighted total.
	moved := []value.Row{
		{value.NewInt(1), value.NewString("a"), value.NewFloat(0.2)},
		{value.NewInt(2), value.NewString("b"), value.NewFloat(0.1)},
		rows[2],
	}
	if a, b := digestRows(rows, false), digestRows(moved, false); a.equal(b) {
		t.Errorf("digest misses floats swapped between rows: %v", a)
	}
	var back digest
	d := digestRows(rows, true)
	b, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !d.equal(back) {
		t.Errorf("digest does not survive JSON: %v vs %v", d, back)
	}
}

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "latency", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "rate", Better: "higher", Bound: 0.10}
	cases := []struct {
		name         string
		m            metricSpec
		base, change []float64
		want         string
	}{
		{"same", lower, []float64{100, 101, 99}, []float64{100, 102, 98}, verdictOK},
		{"slower beyond the bound", lower, []float64{100, 101, 99}, []float64{120, 121, 119}, verdictWorse},
		{"slower within the bound", lower, []float64{100, 101, 99}, []float64{105, 106, 104}, verdictOK},
		{"faster", lower, []float64{100, 101, 99}, []float64{50, 51, 49}, verdictOK},
		{"too noisy to say", lower, []float64{100, 140, 80}, []float64{110, 150, 85}, verdictUnresolved},
		{"noisy but every run better", lower, []float64{100, 140, 80}, []float64{40, 60, 50}, verdictOK},
		{"rate fell", higher, []float64{100, 101, 99}, []float64{80, 81, 79}, verdictWorse},
		{"rate rose", higher, []float64{100, 101, 99}, []float64{130, 131, 129}, verdictOK},
		{"failures appeared", metricSpec{Name: "fail_share", Better: "lower"}, []float64{0, 0, 0}, []float64{0.01, 0.01, 0}, verdictWorse},
		{"no failures", metricSpec{Name: "fail_share", Better: "lower"}, []float64{0, 0, 0}, []float64{0, 0, 0}, verdictOK},
	}
	for _, c := range cases {
		if got, _ := judge(c.m, c.base, c.change); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareRefusesDifferentWork(t *testing.T) {
	run := func(seed int64, seconds int, workloads ...string) runRecord {
		rec := runRecord{Env: envBlock{Seed: seed, Seconds: seconds}, Workloads: map[string]*workloadResult{}}
		for _, wl := range workloads {
			rec.Workloads[wl] = &workloadResult{}
		}
		return rec
	}
	base := &resultFile{Runs: []runRecord{run(1, 20, wlOLTP, wlHTAP), run(2, 20, wlOLTP, wlHTAP)}}
	cases := []struct {
		name   string
		change *resultFile
		ok     bool
	}{
		{"same seeds in another order", &resultFile{Runs: []runRecord{run(2, 20, wlOLTP, wlHTAP), run(1, 20, wlHTAP, wlOLTP)}}, true},
		{"another seed", &resultFile{Runs: []runRecord{run(1, 20, wlOLTP, wlHTAP), run(3, 20, wlOLTP, wlHTAP)}}, false},
		{"another length", &resultFile{Runs: []runRecord{run(1, 20, wlOLTP, wlHTAP), run(2, 15, wlOLTP, wlHTAP)}}, false},
		{"a workload missing", &resultFile{Runs: []runRecord{run(1, 20, wlOLTP, wlHTAP), run(2, 20, wlOLTP)}}, false},
	}
	for _, c := range cases {
		if err := sameWork(base, c.change); (err == nil) != c.ok {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}

// TestColumnstoreShowsStaleRow runs the engine defect that updatedOnce
// keeps htap_mixed's streams away from (data.go, README). It passes as
// long as the defect is there. When it fails the engine has been fixed:
// delete updatedOnce and this test, in a change of their own that
// measures the baseline again.
func TestColumnstoreShowsStaleRow(t *testing.T) {
	db := engine.New(vclock.DefaultModel(vclock.DRAM), 0)
	db.DefaultRowGroupSize = 64
	sum := func(opts ...engine.ExecOptions) int64 {
		res, err := db.Exec("SELECT sum(q) FROM t", opts...)
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows[0][0].Int()
	}
	stmts := []string{"CREATE TABLE t (k INT, grp INT, q INT, PRIMARY KEY (k))"}
	for i := 0; i < 200; i++ {
		stmts = append(stmts, fmt.Sprintf("INSERT INTO t VALUES (%d, %d, 50)", i, i%5))
	}
	stmts = append(stmts,
		"CREATE NONCLUSTERED COLUMNSTORE INDEX csi ON t",
		"UPDATE t SET q = 40 WHERE k = 7",
		"UPDATE t SET q = 30 WHERE k = 7")
	for _, s := range stmts {
		if _, err := db.Exec(s); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
	db.Table("t").TupleMove(nil)
	right := sum(engine.ExecOptions{NoColumnstore: true})
	if right != 200*50-20 {
		t.Fatalf("the B+ tree path sums %d, want %d", right, 200*50-20)
	}
	if got := sum(); got == right {
		t.Errorf("a row updated twice between two compactions now reads right through the columnstore (%d): "+
			"the engine is fixed, so delete updatedOnce from data.go, and this test, and measure the baseline again", got)
	}
}

// TestUpdatedOnce checks the filter itself: no stream it passes updates
// a row twice, and a run too long for the data is an error, not a hang.
func TestUpdatedOnce(t *testing.T) {
	cfg := tinyScale().ch
	stream, err := htapStream(1, cfg, 2, updatedOnce{})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, st := range stream {
		if i := strings.Index(st.sql, " WHERE "); i >= 0 &&
			(strings.HasPrefix(st.sql, "UPDATE stock ") || strings.HasPrefix(st.sql, "UPDATE ch_customer ")) {
			if seen[st.sql[i:]] {
				t.Errorf("row updated twice: %s", st.sql)
			}
			seen[st.sql[i:]] = true
		}
	}
	// The tiny scale has 100 stock rows; some thousand NewOrders want more.
	if _, err := htapStream(1, cfg, 500, updatedOnce{}); err == nil {
		t.Errorf("a stream that must run out of rows was generated")
	}
}

// TestTapFollowsFrames feeds the tap a statement's request frames in
// awkward pieces and checks what it attributes to the statement.
func TestTapFollowsFrames(t *testing.T) {
	var stream frameBuffer
	var exec wire.Builder
	exec.Byte(0)
	exec.String("SELECT 1")
	for _, f := range []struct {
		typ  byte
		body []byte
	}{
		{wire.FramePing, nil},
		{wire.FrameExec, exec.Bytes()},
		{wire.FrameFetch, []byte{0x80, 0x20}},
		{wire.FrameFetch, []byte{0x80, 0x20}},
		{wire.FrameExec, exec.Bytes()},
		{wire.FrameQuit, nil},
	} {
		if err := wire.WriteFrame(&stream, f.typ, f.body); err != nil {
			t.Fatal(err)
		}
	}
	c := &tapConn{}
	now := time.Now()
	for off := 0; off < len(stream.b); off += 3 {
		end := min(off+3, len(stream.b))
		c.follow(stream.b[off:end], now)
	}
	recs := c.records()
	if len(recs) != 2 {
		t.Fatalf("tap saw %d statements, want 2", len(recs))
	}
	execSize := 4 + 1 + len(exec.Bytes())
	if got, want := recs[0].frames, 3; got != want {
		t.Errorf("first statement: %d frames, want %d", got, want)
	}
	if got, want := recs[0].bytesIn, execSize+2*(4+1+2); got != want {
		t.Errorf("first statement: %d bytes in, want %d", got, want)
	}
	if got, want := recs[1].frames, 1; got != want {
		t.Errorf("second statement: %d frames, want %d", got, want)
	}
	if c.inStmt {
		t.Errorf("Quit did not close the open statement")
	}
}
