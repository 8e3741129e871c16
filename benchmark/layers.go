package main

import (
	"time"

	"hybriddb/internal/engine"
)

// layerInputs is what a traced run hands the per-layer computation.
type layerInputs struct {
	def            workloadDef
	tr             *tracer
	untraced       *phase
	traced         *phase
	wire           *wireTrace // nil for an in-process workload
	admissionWaits float64
	mover          engine.MoverStats
	debtRows       int64
	probes         map[string]float64 // storage probe results by metric name
}

// spanIndex looks spans up by name and statement.
type spanIndex struct {
	byName map[string][]*span
	// at[name][trace] is the span of that name in that statement; every
	// name occurs at most once per statement.
	at map[string]map[int]*span
}

func indexSpans(tr *tracer) *spanIndex {
	ix := &spanIndex{byName: map[string][]*span{}, at: map[string]map[int]*span{}}
	for i := range tr.spans {
		s := &tr.spans[i]
		ix.byName[s.Name] = append(ix.byName[s.Name], s)
		if ix.at[s.Name] == nil {
			ix.at[s.Name] = map[int]*span{}
		}
		ix.at[s.Name][s.Trace] = s
	}
	return ix
}

// durOf is the duration of the named span of statement trace, 0 when
// the statement has none.
func (ix *spanIndex) durOf(name string, trace int) time.Duration {
	if s := ix.at[name][trace]; s != nil {
		return s.dur()
	}
	return 0
}

// medianUS is the median duration in µs of the named spans that keep
// returns true for (nil keeps all), and how many there were.
func (ix *spanIndex) medianUS(name string, keep func(*span) bool) (float64, int) {
	var v []float64
	for _, s := range ix.byName[name] {
		if keep == nil || keep(s) {
			v = append(v, usOf(s.dur()))
		}
	}
	return median(v), len(v)
}

// perLayerMetrics turns a traced run into the per-layer metrics. Every
// name in the catalogue is emitted; a layer the workload bypasses reads
// 0.
func perLayerMetrics(in layerInputs) map[string]metricValue {
	ix := indexSpans(in.tr)
	units := map[string]string{}
	for _, m := range perLayer {
		units[m.Name] = m.Unit
	}
	out := map[string]metricValue{}
	set := func(name string, v float64, n int) {
		unit, ok := units[name]
		if !ok {
			panic("benchmark: per-layer metric " + name + " is not in the catalogue")
		}
		out[name] = metricValue{Value: v, Unit: unit, N: n}
	}
	med := func(metric, spanName string, keep func(*span) bool) {
		v, n := ix.medianUS(spanName, keep)
		set(metric, v, n)
	}
	nStmts := len(in.traced.stream)

	// hybridsql and wire: the socket boundary.
	if wt := in.wire; wt != nil {
		med("hybridsql.exec_us", spanClientExec, nil)
		med("wire.server_us", spanServer, nil)
		var clientSelf, wireSelf []float64
		var clientSelfNS, rows, bytesOut, bytesIn, frames, writes float64
		for seq := 0; seq < nStmts; seq++ {
			cs := ix.durOf(spanClientExec, seq) - ix.durOf(spanServer, seq)
			clientSelf = append(clientSelf, usOf(cs))
			// The server's own time is what is left after the parse and
			// the engine call the twin timed for the same statement.
			ws := ix.durOf(spanServer, seq) - ix.durOf(spanParse, seq) - ix.durOf(spanExecStmt, seq)
			wireSelf = append(wireSelf, usOf(ws))
			ts := wt.stmts[seq]
			if r := in.traced.out[seq].rows; r > 0 {
				clientSelfNS += float64(cs)
				rows += float64(r)
				bytesOut += float64(ts.bytesOut)
			}
			bytesIn += float64(ts.bytesIn)
			frames += float64(ts.frames)
			writes += float64(ts.writes)
		}
		set("hybridsql.client_self_us", median(clientSelf), nStmts)
		set("wire.self_us", median(wireSelf), nStmts)
		if rows > 0 {
			set("hybridsql.client_self_ns_per_row", clientSelfNS/rows, int(rows))
			set("wire.bytes_out_per_row", bytesOut/rows, int(rows))
		}
		set("wire.bytes_in_per_stmt", bytesIn/float64(nStmts), nStmts)
		set("wire.frames_per_stmt", frames/float64(nStmts), nStmts)
		set("wire.conn_writes_per_stmt", writes/float64(nStmts), nStmts)
		set("session.sessions_open", float64(wt.sessions), 0)
		set("session.reader_overlap_share", wt.overlap, 0)
		for metric, name := range map[string]string{"wire.encode_ns_per_row": spanEncode, "wire.decode_ns_per_row": spanDecode} {
			var ns, r float64
			for _, s := range ix.byName[name] {
				ns += float64(s.dur())
				r += float64(s.Attrs.Rows)
			}
			if r > 0 {
				set(metric, ns/r, int(r))
			}
		}
	}
	set("session.admission_waits", in.admissionWaits, 0)

	// sql and optimizer.
	med("sql.parse_us", spanParse, nil)
	var parseNS, parseBytes float64
	for _, s := range ix.byName[spanParse] {
		parseNS += float64(s.dur())
		parseBytes += float64(s.Attrs.Bytes)
	}
	if parseBytes > 0 {
		set("sql.parse_ns_per_byte", parseNS/parseBytes, int(parseBytes))
	}
	med("sql.bind_us", spanBind, nil)
	med("sql.normalize_us", spanNormalize, nil)
	med("optimizer.optimize_us", spanOptimize, nil)
	isSelect := func(s *span) bool { return s.Attrs.Kind == "select" }
	med("optimizer.optimize_after_write_us", spanOptimize, func(s *span) bool { return isSelect(s) && s.Attrs.AfterWrite })
	med("optimizer.optimize_steady_us", spanOptimize, func(s *span) bool { return isSelect(s) && !s.Attrs.AfterWrite })

	// exec: per statement, and per operator class as the sum of the
	// member queries' medians (one pass's worth of that class).
	med("exec.execute_us", spanExecute, nil)
	type classAcc struct {
		byQuery       map[string][]float64
		wall, virtual float64
	}
	classes := map[string]*classAcc{}
	var execNS, execRows float64
	for _, s := range ix.byName[spanExecute] {
		c := classes[s.Attrs.Class]
		if c == nil {
			c = &classAcc{byQuery: map[string][]float64{}}
			classes[s.Attrs.Class] = c
		}
		c.byQuery[s.Attrs.Query] = append(c.byQuery[s.Attrs.Query], msOf(s.dur()))
		c.wall += float64(s.dur())
		c.virtual += float64(s.Attrs.VirtualNS)
		execNS += float64(s.dur())
		execRows += float64(s.Attrs.Rows)
	}
	for _, class := range []string{"agg", "join", "sort", "scan"} {
		c := classes[class]
		if c == nil {
			set("exec."+class+"_ms", 0, 0)
			set("exec.wall_over_virtual_"+class, 0, 0)
			continue
		}
		sum := 0.0
		for _, v := range c.byQuery {
			sum += median(v)
		}
		set("exec."+class+"_ms", sum, len(c.byQuery))
		if c.virtual > 0 {
			set("exec.wall_over_virtual_"+class, c.wall/c.virtual, len(c.byQuery))
		}
	}
	if execRows > 0 {
		set("exec.ns_per_row_out", execNS/execRows, int(execRows))
	}

	// engine: ExecStmt by statement kind, and what it adds to a SELECT
	// over the stages timed one by one.
	for _, kind := range []string{"select", "insert", "update", "delete"} {
		kind := kind
		med("engine.exec_stmt_"+kind+"_us", spanExecStmt, func(s *span) bool { return s.Attrs.Kind == kind })
	}
	var overhead []float64
	for _, s := range ix.byName[spanExecStmt] {
		if s.Attrs.Shadow {
			stages := ix.durOf(spanBind, s.Trace) + ix.durOf(spanOptimizeWarm, s.Trace) + ix.durOf(spanExecute, s.Trace)
			overhead = append(overhead, usOf(s.dur()-stages))
		}
	}
	set("engine.overhead_us", median(overhead), len(overhead))
	set("engine.mover_steps", float64(in.mover.Steps), 0)
	set("engine.mover_rows_moved", float64(in.mover.RowsMoved), 0)
	set("engine.mover_aborts", float64(in.mover.Aborts), 0)
	set("engine.debt_rows_end", float64(in.debtRows), 0)
	var stmtMS []float64
	for i := range in.untraced.out {
		stmtMS = append(stmtMS, msOf(in.untraced.out[i].dur))
	}
	set("engine.stmt_gap_p99_ms", percentile(stmtMS, 0.99), len(stmtMS))

	med("querystore.record_us", spanRecord, nil)

	// runtime, from the untraced phase.
	res, n := in.untraced.res, float64(len(in.untraced.stream))
	set("runtime.mallocs_per_op", float64(res.mallocs)/n, int(n))
	if res.totalCPU > 0 {
		set("runtime.gc_cpu_share", res.gcCPU/res.totalCPU, 0)
	}
	set("runtime.gc_pause_total_ms", msOf(res.gcPause), 0)

	// The traced run against the untraced one, and how much of a
	// statement's wall time the timed calls account for. A statement's
	// root is what its caller waited for: the client call over the wire,
	// the stmt span in-process. Its leaves are the calls into sql,
	// optimizer, exec and (for writes) engine; the remainder is reported
	// above as engine.overhead_us, wire.self_us and
	// hybridsql.client_self_us.
	var leafNS, rootNS float64
	rootName := spanStmt
	if in.wire != nil {
		rootName = spanClientExec
	}
	for _, s := range ix.byName[rootName] {
		rootNS += float64(s.dur())
		t := s.Trace
		leafNS += float64(ix.durOf(spanParse, t) + ix.durOf(spanExecute, t))
		if ix.at[spanExecute][t] != nil {
			leafNS += float64(ix.durOf(spanBind, t) + ix.durOf(spanOptimize, t))
		} else {
			leafNS += float64(ix.durOf(spanExecStmt, t))
		}
	}
	if rootNS > 0 {
		set("bench.accounted_share", leafNS/rootNS, len(ix.byName[rootName]))
		tracedWall := rootNS / 1e9
		if in.def.name == wlResult {
			tracedWall = in.traced.wall.Seconds() // two clients overlap
		}
		tracedOps := float64(nStmts) / tracedWall
		untracedOps := n / in.untraced.wall.Seconds()
		set("bench.trace_overhead_share", 1-tracedOps/untracedOps, nStmts)
	}

	set("bench.machine_probe_ms", in.untraced.probeMS, 0)

	for name, v := range in.probes {
		set(name, v, 0)
	}
	for _, m := range perLayer {
		if _, ok := out[m.Name]; !ok {
			set(m.Name, 0, 0)
		}
	}
	return out
}
