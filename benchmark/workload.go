package main

import (
	dbsql "database/sql"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"hybriddb/client/hybridsql"
	"hybriddb/internal/metrics"
	"hybriddb/internal/value"
	"hybriddb/internal/workload"
)

// metricValue is one reported number. N is the sample count behind a
// median or percentile.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// tmplStat is one statement template's latency.
type tmplStat struct {
	MedianMS float64 `json:"median_ms"`
	N        int     `json:"n"`
}

// workloadResult is everything one run of one workload reports.
type workloadResult struct {
	Workload string         `json:"workload"`
	Ops      map[string]int `json:"ops"`
	WallS    float64        `json:"wall_s"` // set-up and checks included
	// ProbeMS is the machine probe during the measured phase (machine.go).
	ProbeMS   float64                `json:"machine_probe_ms"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Failures  []string               `json:"failures,omitempty"`
	EndToEnd  map[string]metricValue `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer,omitempty"`
	Templates map[string]tmplStat    `json:"templates"`
}

// runner holds what every workload of one invocation shares.
type runner struct {
	seed         int64
	sc           scale
	traced       bool
	outDir       string // trace files
	goldens      goldenFile
	updateGolden bool
}

// work is one workload bound to one database: its statement streams,
// reference answers and failure count.
type work struct {
	r      *runner
	def    workloadDef
	stream []stmt            // the single-client workloads
	calls  [][]resultCall    // result_wire, per client
	warm   []stmt            // untimed warm-up, charged to setup_s
	refs   map[string]digest // read-only workloads: the answer per query text
	c      *checker
}

func (r *runner) newWork(def workloadDef) (*work, error) {
	w := &work{r: r, def: def, c: &checker{}}
	cfg, sc := r.sc.ch, r.sc
	var err error
	switch def.name {
	case wlAnalytic:
		w.stream = analyticStream(r.seed, sc.passes)
		for i, q := range analyticQueries() {
			w.warm = append(w.warm, newStmt(q, queryName(i), -1, true))
		}
	case wlOLTP:
		if w.stream, err = oltpStream(r.seed, cfg, sc.oltpTxns); err != nil {
			return nil, err
		}
		if w.warm, err = warmTxnStream(r.seed, cfg, sc.warmTxns, nil); err != nil {
			return nil, err
		}
	case wlHTAP:
		// The warm-up and the stream run on one database: see updatedOnce.
		once := updatedOnce{}
		if w.warm, err = warmTxnStream(r.seed, cfg, sc.warmTxns, once); err != nil {
			return nil, err
		}
		if w.stream, err = htapStream(r.seed, cfg, sc.htapRounds, once); err != nil {
			return nil, err
		}
		queries := workload.CHQueries()
		for _, q := range htapQueryOrder {
			w.warm = append(w.warm, newStmt(queries[q-1], queryName(q-1), -1, true))
		}
	case wlResult:
		for c := 0; c < resultClients; c++ {
			w.calls = append(w.calls, resultStream(r.seed, cfg, c, sc.resultQueries))
		}
		w.stream = resultStmts(w.calls)
		for qi := range resultQueries {
			for wh := 0; wh < cfg.Warehouses; wh++ {
				w.warm = append(w.warm, newStmt(resultCall{qi, wh}.literal(), resultQueries[qi].tmpl, -1, false))
			}
		}
	}
	return w, nil
}

// warmUp runs the warm-up statements the way the workload runs its
// stream. For a read-only workload it first takes every query's
// reference answer in-process, which for an in-process workload is the
// warm-up.
func (w *work) warmUp(e *env) error {
	if w.def.readOnly {
		ph := runStream(w.warm, inProcess(e.db), nil)
		ph.check(w.c, nil)
		w.refs = map[string]digest{}
		for i := range ph.stream {
			w.refs[ph.stream[i].sql] = ph.out[i].dig
		}
		if e.srv == nil {
			return nil
		}
	}
	exec := inProcess(e.db)
	if e.srv != nil {
		cl, err := hybridsql.Connect(hybridsql.Config{Addr: e.addr, User: "warmup"})
		if err != nil {
			return err
		}
		defer cl.Close()
		exec = overWire(cl, nil, nil)
	}
	runStream(w.warm, exec, nil).check(w.c, w.refs)
	return nil
}

// wireTrace is the server side of a traced wire phase, by statement.
type wireTrace struct {
	clientSpans []int // hybridsql.exec span per statement
	serverSpans []int // wire.server span per statement
	stmts       []tapStmt
	overlap     float64 // share of the phase with both connections busy
	sessions    int     // sessions open while the clients were connected
}

// measure runs the workload's stream once: untraced when tr is nil,
// otherwise with a span around every call the benchmark itself makes.
func (w *work) measure(e *env, tr *tracer) (*phase, *wireTrace, error) {
	if !w.def.wire {
		exec := inProcess(e.db)
		if tr != nil {
			exec = newPipeline(e.db, tr, false).exec
		}
		var verify verifyFn
		if !w.def.readOnly {
			verify = bplusOracle(e.db)
		}
		return runStream(w.stream, exec, verify), nil, nil
	}

	var wt *wireTrace
	tapBase := 0 // the warm-up's connection came first
	if tr != nil {
		wt = &wireTrace{clientSpans: make([]int, len(w.stream))}
		tapBase = len(e.tap.tapped())
	}
	var ph *phase
	var sessions int
	if w.def.name == wlResult {
		pool, err := dbsql.Open("hybrid", e.addr)
		if err != nil {
			return nil, nil, err
		}
		pool.SetMaxOpenConns(resultClients)
		ph, err = runResultClients(pool, w.calls)
		sessions = len(e.db.Sessions())
		if cerr := pool.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, nil, err
		}
		if tr != nil {
			// The clients timed themselves; their spans are added now.
			for i := range ph.out {
				o := &ph.out[i]
				sp := tr.add(i, 0, spanClientExec, o.start, o.start.Add(o.dur))
				sp.Attrs.Query, sp.Attrs.Rows = ph.stream[i].tmpl, o.rows
				wt.clientSpans[i] = sp.ID
			}
		}
	} else {
		cl, err := hybridsql.Connect(hybridsql.Config{Addr: e.addr, User: "bench"})
		if err != nil {
			return nil, nil, err
		}
		var spans []int
		if wt != nil {
			spans = wt.clientSpans
		}
		ph = runStream(w.stream, overWire(cl, tr, spans), nil)
		sessions = len(e.db.Sessions())
		if err := cl.Close(); err != nil {
			return nil, nil, err
		}
	}
	if tr == nil {
		return ph, nil, nil
	}
	wt.sessions = sessions
	return ph, wt, wt.join(tr, e.tap.tapped()[tapBase:], ph)
}

// join turns the tap's records into wire.server spans under the
// matching hybridsql.exec spans. Connections are in client order and
// each saw its client's statements in order, so statement seq is
// connection*perClient + index.
func (wt *wireTrace) join(tr *tracer, conns []*tapConn, ph *phase) error {
	n := len(ph.stream)
	if len(conns) == 0 || n%len(conns) != 0 {
		return fmt.Errorf("tap saw %d connections for %d statements", len(conns), n)
	}
	per := n / len(conns)
	wt.serverSpans = make([]int, n)
	wt.stmts = make([]tapStmt, 0, n)
	var recs [][]tapStmt
	for ci, c := range conns {
		r := c.records()
		if len(r) != per {
			return fmt.Errorf("tap saw %d statements on connection %d, want %d", len(r), ci, per)
		}
		recs = append(recs, r)
		for i, ts := range r {
			seq := ci*per + i
			sp := tr.add(seq, wt.clientSpans[seq], spanServer, ts.start, ts.end)
			// The span covers the statement's frames end to end; the
			// time the server was waiting for the client's next Fetch
			// is not its own.
			sp.End = sp.Start + int64(ts.busy)
			sp.Attrs.Query, sp.Attrs.Rows, sp.Attrs.Bytes = ph.stream[seq].tmpl, ph.out[seq].rows, int64(ts.bytesOut)
			wt.serverSpans[seq] = sp.ID
			wt.stmts = append(wt.stmts, ts)
		}
	}
	if len(recs) == 2 {
		first := ph.out[0].start
		wt.overlap = overlapShare(recs[0], recs[1], first, first.Add(ph.wall))
	}
	return nil
}

// replayTwin runs the phase's statements through the decomposed
// pipeline on a twin database built from the same seed, hangs the spans
// under the wire.server spans, and checks that the twin, statement by
// statement, answers what the wire did. Joining by sequence number is
// sound because the engine is deterministic at DOP 1 with one writer.
func (w *work) replayTwin(tr *tracer, wt *wireTrace, wirePh *phase) error {
	twin, err := openEnv(w.def, w.r.seed, w.r.sc, false, false)
	if err != nil {
		return err
	}
	defer twin.close()
	runStream(w.warm, inProcess(twin.db), nil).check(w.c, w.refs)

	p := newPipeline(twin.db, tr, true)
	p.parents = wt.serverSpans
	var probeErr error
	ph := runStream(w.stream, func(seq int, st *stmt) ([]value.Row, int64, error) {
		rows, affected, err := p.exec(seq, st)
		if err == nil && probeErr == nil {
			probeErr = wireProbes(tr, seq, wt.serverSpans[seq], st, rows)
		}
		return rows, affected, err
	}, nil)
	if probeErr != nil {
		return probeErr
	}
	for i := range ph.stream {
		st, a, b := &ph.stream[i], &wirePh.out[i], &ph.out[i]
		w.c.attempted++
		switch {
		case b.err != nil:
			w.c.fail("twin %s: %v", st.tmpl, b.err)
		case a.err != nil: // already counted against the wire phase
		case st.kind == kindWrite && a.affected != b.affected:
			w.c.fail("%s #%d: wire affected %d rows, twin %d", st.tmpl, i, a.affected, b.affected)
		case st.kind != kindWrite && !a.dig.equal(b.dig):
			w.c.fail("%s #%d: wire answered %v, twin %v", st.tmpl, i, a.dig, b.dig)
		}
	}
	return nil
}

// run executes one workload: set-up, warm-up, the untraced measured
// phase and its checks, and for a traced run the traced phase, the twin
// replay and the storage probes.
func (r *runner) run(name string) (*workloadResult, error) {
	def, ok := workloadDefs[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	began := time.Now()
	w, err := r.newWork(def)
	if err != nil {
		return nil, err
	}
	ph, setup, space, err := r.runUntraced(w)
	if err != nil {
		return nil, err
	}
	res := &workloadResult{Workload: name, Ops: streamOps(ph.stream), Templates: templateStats(ph), ProbeMS: ph.probeMS}
	res.EndToEnd = endToEndMetrics(def, ph, space)
	res.EndToEnd["setup_s"] = metricValue{Value: setup, Unit: "s", N: r.sc.setups}
	// Before the traced half, whose twin database would count.
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	res.EndToEnd["peak_rss_mb"] = metricValue{Value: rss, Unit: "MB"}
	if r.traced {
		if res.PerLayer, err = r.runTraced(w, ph); err != nil {
			return nil, err
		}
	}
	res.Attempted, res.Failed, res.Failures = w.c.attempted, w.c.failed, w.c.failures
	res.Correct = w.c.failed == 0
	res.EndToEnd["fail_share"] = metricValue{Value: float64(res.Failed) / float64(res.Attempted), Unit: "share", N: res.Attempted}
	res.WallS = time.Since(began).Seconds()
	return res, nil
}

// setUp builds the workload's database sc.setups times and returns the
// last one with the time each build took, of which setup_s reports the
// median.
func (r *runner) setUp(def workloadDef) (e *env, builds []float64, err error) {
	for i := 0; i < r.sc.setups; i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, nil, err
			}
			// Collect the database just dropped before building the next,
			// or peak_rss_mb depends on where the collector happened to be.
			e = nil
			runtime.GC()
		}
		t0 := time.Now()
		if e, err = openEnv(def, r.seed, r.sc, true, false); err != nil {
			return nil, nil, err
		}
		builds = append(builds, time.Since(t0).Seconds())
	}
	return e, builds, nil
}

// runUntraced is the run the end-to-end metrics come from: set-up,
// warm-up (charged to setup_s), the measured phase and its checks.
func (r *runner) runUntraced(w *work) (ph *phase, setupS, space float64, err error) {
	e, builds, err := r.setUp(w.def)
	if err != nil {
		return nil, 0, 0, err
	}
	defer func() {
		if cerr := e.close(); err == nil {
			err = cerr
		}
	}()
	t0 := time.Now()
	if err := w.warmUp(e); err != nil {
		return nil, 0, 0, err
	}
	setupS = median(builds) + time.Since(t0).Seconds()
	if ph, _, err = w.measure(e, nil); err != nil {
		return nil, 0, 0, err
	}
	ph.check(w.c, w.refs)
	return ph, setupS, spaceBytesPerRow(e.db), r.checkGoldens(w, e, ph)
}

// checkGoldens compares a seed-1 run with the committed answers, or
// records them under -update-golden.
func (r *runner) checkGoldens(w *work, e *env, ph *phase) error {
	if r.seed != goldenSeed {
		return nil
	}
	got := &goldenWorkload{Ops: len(ph.stream)}
	if w.def.readOnly {
		got.Queries = w.refs
	} else {
		var err error
		if got.Tables, err = tableState(e.db); err != nil {
			return err
		}
		if w.def.design == designBplus {
			got.Reads = ph.reads()
		} else {
			// Delivery writes these with TOP (n) and no ORDER BY. On the
			// B+ tree design the clustered order decides which rows that
			// is; on the hybrid design it is whichever rows the scan met
			// first, which moves with the tuple mover's timing. Their row
			// counts are still fixed, and bplusOracle checks the reads.
			for _, name := range []string{"neworder", "oorder", "orderline"} {
				got.Tables[name] = digest{Rows: got.Tables[name].Rows}
			}
		}
	}
	if r.updateGolden {
		if r.goldens[r.sc.name] == nil {
			r.goldens[r.sc.name] = map[string]*goldenWorkload{}
		}
		r.goldens[r.sc.name][w.def.name] = got
		return nil
	}
	want := r.goldens[r.sc.name][w.def.name]
	w.c.attempted++
	if want == nil {
		w.c.fail("no goldens for %s at scale %s (run -update-golden)", w.def.name, r.sc.name)
		return nil
	}
	w.c.checkGolden(want, got)
	return nil
}

// runTraced is the traced half of a run, on a fresh database so that
// the traced stream starts from the state the untraced one did.
func (r *runner) runTraced(w *work, untraced *phase) (map[string]metricValue, error) {
	def := w.def
	e, err := openEnv(def, r.seed, r.sc, true, true)
	if err != nil {
		return nil, err
	}
	defer e.close()
	if err := w.warmUp(e); err != nil {
		return nil, err
	}
	waits0 := metrics.Default().Value("engine_admission_waits_total")
	tr := newTracer(def.name, 16*len(w.stream))
	ph, wt, err := w.measure(e, tr)
	if err != nil {
		return nil, err
	}
	ph.check(w.c, w.refs)
	if wt != nil {
		if err := w.replayTwin(tr, wt, ph); err != nil {
			return nil, err
		}
	}
	in := layerInputs{
		def: def, tr: tr, untraced: untraced, traced: ph, wire: wt,
		admissionWaits: metrics.Default().Value("engine_admission_waits_total") - waits0,
		probes:         map[string]float64{},
	}
	if m := e.db.Mover(); m != nil {
		in.mover = m.Stats()
	}
	for _, d := range e.db.CompactionDebts() {
		in.debtRows += d.Debt.DeltaRows + int64(d.Debt.BufferedDeletes) + int64(d.Debt.DeadRows)
	}
	colstoreProbes(e.db, r.sc, in.probes)
	btreeProbes(e.db, r.sc, r.seed, in.probes)
	if err := tableProbes(e.db, def, r.sc, r.seed, in.probes); err != nil {
		return nil, err
	}
	out := perLayerMetrics(in)
	return out, tr.write(r.outDir)
}

// streamOps counts a stream's operations for the result file.
func streamOps(stream []stmt) map[string]int {
	ops := map[string]int{"statements": len(stream)}
	units := map[int]bool{}
	for i := range stream {
		units[stream[i].unit] = true
		switch stream[i].kind {
		case kindRead:
			ops["reads"]++
		case kindWrite:
			ops["writes"]++
		case kindQuery:
			ops["queries"]++
		}
	}
	ops["units"] = len(units)
	return ops
}

func median(v []float64) float64 { return percentile(v, 0.5) }

// percentile is the nearest-rank percentile of v (not modified).
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// templateStats is the median latency per statement template.
func templateStats(ph *phase) map[string]tmplStat {
	by := map[string][]float64{}
	for i := range ph.stream {
		t := ph.stream[i].tmpl
		by[t] = append(by[t], msOf(ph.out[i].dur))
	}
	out := map[string]tmplStat{}
	for t, v := range by {
		out[t] = tmplStat{MedianMS: median(v), N: len(v)}
	}
	return out
}

// endToEndMetrics computes the measured phase's metrics; run adds
// setup_s, peak_rss_mb and fail_share.
func endToEndMetrics(def workloadDef, ph *phase, space float64) map[string]metricValue {
	n := len(ph.stream)
	wall := ph.wall.Seconds()
	var reads, writes, queries []float64
	var rows int64
	units := map[int]float64{}
	queryTmpl, readTmpl := map[string][]float64{}, map[string][]float64{}
	for i := range ph.stream {
		st, o := &ph.stream[i], &ph.out[i]
		ms := msOf(o.dur)
		rows += o.rows
		units[st.unit] += o.dur.Seconds()
		switch st.kind {
		case kindRead:
			reads = append(reads, ms)
			readTmpl[st.tmpl] = append(readTmpl[st.tmpl], ms)
		case kindWrite:
			writes = append(writes, ms)
		case kindQuery:
			queries = append(queries, ms)
			queryTmpl[st.tmpl] = append(queryTmpl[st.tmpl], ms)
		}
	}
	// A workload with no short reads takes read_p95_ms over its queries,
	// and one with no analytic queries takes the geometric mean over its
	// read templates, so that both metrics exist on every workload.
	tail := reads
	if len(tail) == 0 {
		tail = queries
	}
	if len(queryTmpl) == 0 {
		queryTmpl = readTmpl
	}
	logSum := 0.0
	for _, v := range queryTmpl {
		logSum += math.Log(median(v))
	}

	m := map[string]metricValue{
		"ops_per_s":           {Value: float64(n) / wall, Unit: "1/s", N: n},
		"read_p95_ms":         {Value: percentile(tail, 0.95), Unit: "ms", N: len(tail)},
		"query_geomean_ms":    {Value: math.Exp(logSum / float64(len(queryTmpl))), Unit: "ms", N: len(queryTmpl)},
		"rows_per_s":          {Value: float64(rows) / wall, Unit: "1/s", N: int(rows)},
		"alloc_kb_per_op":     {Value: float64(ph.res.allocBytes) / float64(n) / 1024, Unit: "kB", N: n},
		"space_bytes_per_row": {Value: space, Unit: "B/row"},
	}
	if len(reads) > 0 {
		m["read_p50_ms"] = metricValue{Value: percentile(reads, 0.50), Unit: "ms", N: len(reads)}
	}
	if len(writes) > 0 {
		m["txn_per_s"] = metricValue{Value: float64(len(units)) / wall, Unit: "1/s", N: len(units)}
		m["write_p50_ms"] = metricValue{Value: percentile(writes, 0.50), Unit: "ms", N: len(writes)}
		m["write_p95_ms"] = metricValue{Value: percentile(writes, 0.95), Unit: "ms", N: len(writes)}
	}
	if def.name == wlAnalytic {
		var passes []float64
		for _, s := range units {
			passes = append(passes, s)
		}
		m["pass_s"] = metricValue{Value: median(passes), Unit: "s", N: len(passes)}
	}
	return m
}
