package main

import (
	"context"
	dbsql "database/sql"
	"fmt"
	"net"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"

	"hybriddb/client/hybridsql"
	"hybriddb/internal/engine"
	"hybriddb/internal/querystore"
	"hybriddb/internal/value"
	"hybriddb/internal/wire"
)

// workloadDef is a workload's fixed settings.
type workloadDef struct {
	name        string
	design      string
	smallGroups bool // columnstores built with the scale's small rowgroups
	wire        bool // served by wire.NewServer, configured like hybridd's defaults
	mover       bool // background tuple mover on (wire workloads always have it)
	readOnly    bool // every query has one answer, checked on every execution
}

var workloadDefs = map[string]workloadDef{
	wlAnalytic: {name: wlAnalytic, design: designHybrid, readOnly: true},
	wlOLTP:     {name: wlOLTP, design: designBplus, wire: true},
	// Small rowgroups give the mover ten or more cycles in a run.
	wlHTAP:   {name: wlHTAP, design: designHybrid, smallGroups: true, mover: true},
	wlResult: {name: wlResult, design: designHybrid, wire: true, readOnly: true},
}

// resultClients is result_wire's connection count: the core cap.
const resultClients = 2

// env is one built database and, for a wire workload, the server in
// front of it.
type env struct {
	def    workloadDef
	db     *engine.Database
	srv    *wire.Server
	tap    *tapListener // non-nil when the server's socket is tapped
	addr   string
	served chan struct{} // closed when the accept loop has returned
}

// openEnv builds the workload's database from seed. serve starts the
// wire server (a twin has the server's engine settings but no socket);
// tapped wraps its listener for a traced run.
func openEnv(def workloadDef, seed int64, sc scale, serve, tapped bool) (*env, error) {
	rowGroup := 0
	if def.smallGroups {
		rowGroup = sc.smallRowGroup
	}
	db, err := buildDB(seed, sc, def.design, rowGroup)
	if err != nil {
		return nil, err
	}
	e := &env{def: def, db: db}
	if def.wire {
		// hybridd's defaults: query store on, mover on, no admission limit.
		db.EnableQueryStore(querystore.Options{})
	}
	if def.wire || def.mover {
		db.EnableTupleMover(engine.MoverOptions{})
	}
	if !def.wire || !serve {
		return e, nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		db.Close()
		return nil, err
	}
	e.addr = ln.Addr().String()
	if tapped {
		e.tap = &tapListener{Listener: ln}
		ln = e.tap
	}
	e.srv = wire.NewServer(db, wire.Options{})
	e.served = make(chan struct{})
	go func() {
		defer close(e.served)
		e.srv.Serve(ln)
	}()
	return e, nil
}

// close drains the server, waits for its accept loop, and stops the
// mover.
func (e *env) close() error {
	var err error
	if e.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err = e.srv.Shutdown(ctx)
		cancel()
		// Serve's own error says nothing new: a listener that failed
		// shows as failed statements, and Shutdown racing ahead of a
		// server that was never used is not a failure.
		<-e.served
	}
	if cerr := e.db.Close(); err == nil {
		err = cerr
	}
	return err
}

// outcome is what one statement of a phase did.
type outcome struct {
	start    time.Time
	dur      time.Duration
	rows     int64 // result rows delivered to the caller
	affected int64
	dig      digest // SELECTs
	err      error
}

// phase is one pass over a statement stream.
type phase struct {
	stream []stmt
	out    []outcome
	// wall is the time the statements took: their sum for one client,
	// the elapsed time when clients overlap.
	wall time.Duration
	res  resources
	// probeMS is the median machine probe taken while the phase ran.
	probeMS float64
}

// resources is process-wide counters over a phase.
type resources struct {
	allocBytes uint64
	mallocs    uint64
	gcPause    time.Duration
	gcCPU      float64 // seconds
	totalCPU   float64 // seconds
}

func readResources() resources {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	cpuSamples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(cpuSamples)
	return resources{
		allocBytes: m.TotalAlloc,
		mallocs:    m.Mallocs,
		gcPause:    time.Duration(m.PauseTotalNs),
		gcCPU:      cpuSamples[0].Value.Float64(),
		totalCPU:   cpuSamples[1].Value.Float64(),
	}
}

func (r resources) plus(o resources) resources {
	return resources{
		allocBytes: r.allocBytes + o.allocBytes,
		mallocs:    r.mallocs + o.mallocs,
		gcPause:    r.gcPause + o.gcPause,
		gcCPU:      r.gcCPU + o.gcCPU,
		totalCPU:   r.totalCPU + o.totalCPU,
	}
}

func (r resources) since(before resources) resources {
	return resources{
		allocBytes: r.allocBytes - before.allocBytes,
		mallocs:    r.mallocs - before.mallocs,
		gcPause:    r.gcPause - before.gcPause,
		gcCPU:      r.gcCPU - before.gcCPU,
		totalCPU:   r.totalCPU - before.totalCPU,
	}
}

// execFn runs statement seq of a stream and returns its rows or rows
// affected.
type execFn func(seq int, st *stmt) ([]value.Row, int64, error)

// verifyFn checks a SELECT's answer against another source, outside the
// statement's timing.
type verifyFn func(st *stmt, got digest) error

// bplusOracle answers the SELECT again with the columnstores hidden
// from the optimizer. htap_mixed checks every answer this way: with the
// mover running, which rows a TOP (n) write picks depends on timing, so
// its answers cannot be committed as goldens, but whatever the tables
// hold, the B+ tree path and the columnstore path must agree on it.
func bplusOracle(db *engine.Database) verifyFn {
	return func(st *stmt, got digest) error {
		res, err := db.Exec(st.sql, engine.ExecOptions{NoColumnstore: true})
		if err != nil {
			return fmt.Errorf("B+ tree oracle: %w", err)
		}
		if want := digestRows(res.Rows, st.ordered); !want.equal(got) {
			return fmt.Errorf("got %v, the B+ tree path answers %v", got, want)
		}
		return nil
	}
}

// runStream is the closed loop of the single-client workloads: the next
// statement is sent when the previous one has returned and been
// digested. Only the statement itself is timed.
func runStream(stream []stmt, exec execFn, verify verifyFn) *phase {
	ph := &phase{stream: stream, out: make([]outcome, len(stream))}
	machineProbe() // allocates the probe's array outside the phase's accounts
	runtime.GC()
	var probes []float64
	var verifying resources // spent in verify: the harness's, not the engine's
	before := readResources()
	for i := range stream {
		st, o := &stream[i], &ph.out[i]
		if i%probeEvery(len(stream)) == 0 {
			probes = append(probes, machineProbe())
		}
		o.start = time.Now()
		rows, affected, err := exec(i, st)
		o.dur = time.Since(o.start)
		ph.wall += o.dur
		switch {
		case err != nil:
			o.err = err
		case st.kind == kindWrite:
			o.affected = affected
		default:
			o.rows = int64(len(rows))
			o.dig = digestRows(rows, st.ordered)
			if verify != nil {
				v0 := readResources()
				o.err = verify(st, o.dig)
				verifying = verifying.plus(readResources().since(v0))
			}
		}
	}
	ph.res = readResources().since(before).since(verifying)
	ph.probeMS = median(probes)
	return ph
}

// check counts a phase's statements and failures. refs holds the one
// right answer of every query of a read-only workload.
func (ph *phase) check(c *checker, refs map[string]digest) {
	for i := range ph.stream {
		st, o := &ph.stream[i], &ph.out[i]
		c.attempted++
		switch {
		case o.err != nil:
			c.fail("%s: %v", st.tmpl, o.err)
		case st.kind == kindWrite:
			c.checkWrite(st, o.affected)
		case refs != nil:
			if want, ok := refs[st.sql]; !ok {
				c.fail("%s: no reference answer", st.tmpl)
			} else if !want.equal(o.dig) {
				c.fail("%s: got %v, want %v", st.tmpl, o.dig, want)
			}
		}
	}
}

// reads chains the digests of every SELECT of the phase in order.
func (ph *phase) reads() *digest {
	var d digest
	for i := range ph.stream {
		if ph.stream[i].kind != kindWrite {
			d.fold(ph.out[i].dig)
		}
	}
	return &d
}

// inProcess executes through Database.Exec.
func inProcess(db *engine.Database) execFn {
	return func(_ int, st *stmt) ([]value.Row, int64, error) {
		res, err := db.Exec(st.sql)
		if err != nil {
			return nil, 0, err
		}
		return res.Rows, res.RowsAffected, nil
	}
}

// overWire executes through hybridsql.Client.Exec. With a tracer each
// call is a hybridsql.exec span, whose ids land in spans by statement.
func overWire(cl *hybridsql.Client, tr *tracer, spans []int) execFn {
	return func(seq int, st *stmt) ([]value.Row, int64, error) {
		id := 0
		if tr != nil {
			id = tr.begin(seq, 0, spanClientExec)
		}
		h, rows, err := cl.Exec(st.sql)
		if tr != nil {
			sp := tr.end(id)
			sp.Attrs.Query, sp.Attrs.Rows = st.tmpl, int64(len(rows))
			spans[seq] = id
		}
		if err != nil {
			return nil, 0, err
		}
		return rows, h.RowsAffected, nil
	}
}

// resultStmts flattens the clients' calls into one stream, client by
// client, so that statement seq = client*len(calls[0]) + i.
func resultStmts(calls [][]resultCall) []stmt {
	var out []stmt
	for _, cs := range calls {
		for i, c := range cs {
			out = append(out, newStmt(c.literal(), resultQueries[c.query].tmpl, i/len(resultQueries), false))
		}
	}
	return out
}

// runResultClients is result_wire's closed loop: each client owns one
// database/sql connection and scans every row of every result into
// typed destinations, digesting as it goes.
func runResultClients(pool *dbsql.DB, calls [][]resultCall) (*phase, error) {
	ctx := context.Background()
	conns := make([]*dbsql.Conn, len(calls))
	for i := range conns {
		// Connect in client order: the tap numbers connections as accepted.
		c, err := pool.Conn(ctx)
		if err != nil {
			return nil, err
		}
		defer c.Close()
		if err := c.PingContext(ctx); err != nil {
			return nil, err
		}
		conns[i] = c
	}
	ph := &phase{stream: resultStmts(calls)}
	ph.out = make([]outcome, len(ph.stream))
	per := len(calls[0])

	machineProbe()
	runtime.GC()
	var probes []float64 // taken by the first client, between its queries
	before := readResources()
	start := time.Now()
	var wg sync.WaitGroup
	for ci := range calls {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			for i, call := range calls[ci] {
				if ci == 0 && i%probeEvery(per) == 0 {
					probes = append(probes, machineProbe())
				}
				o := &ph.out[ci*per+i]
				o.start = time.Now()
				o.dig, o.err = scanResult(ctx, conns[ci], call)
				o.dur = time.Since(o.start)
				o.rows = o.dig.Rows
			}
		}(ci)
	}
	wg.Wait()
	ph.wall = time.Since(start)
	ph.res = readResources().since(before)
	ph.probeMS = median(probes)
	return ph, nil
}

// scanResult runs one result_wire query and scans its rows.
func scanResult(ctx context.Context, conn *dbsql.Conn, call resultCall) (digest, error) {
	d := newDigest(false)
	rows, err := conn.QueryContext(ctx, resultQueries[call.query].sql, call.warehouse)
	if err != nil {
		return d, err
	}
	defer rows.Close()
	switch call.query {
	case 0:
		var oID, iID int64
		var qty, amount float64
		var delivery time.Time
		for rows.Next() {
			if err := rows.Scan(&oID, &iID, &qty, &amount, &delivery); err != nil {
				return d, err
			}
			d.addInt(oID)
			d.addInt(iID)
			d.addFloat(qty)
			d.addFloat(amount)
			d.addDate(delivery.Unix() / 86400)
			d.endRow()
		}
	case 1:
		var id int64
		var last, credit string
		var balance float64
		for rows.Next() {
			if err := rows.Scan(&id, &last, &credit, &balance); err != nil {
				return d, err
			}
			d.addInt(id)
			d.addStr(last)
			d.addStr(credit)
			d.addFloat(balance)
			d.endRow()
		}
	case 2:
		var iID, qty int64
		for rows.Next() {
			if err := rows.Scan(&iID, &qty); err != nil {
				return d, err
			}
			d.addInt(iID)
			d.addInt(qty)
			d.endRow()
		}
	}
	return d, rows.Err()
}

// spaceBytesPerRow is the bytes of every primary and secondary
// structure over the live rows of every table.
func spaceBytesPerRow(db *engine.Database) float64 {
	sm := db.SessionManager()
	sm.RLock()
	defer sm.RUnlock()
	var bytes, rows int64
	for _, t := range db.Tables() {
		bytes += t.PrimaryBytes()
		for _, s := range t.Secondaries {
			switch {
			case s.Hypothetical:
			case s.Columnstore:
				bytes += s.CSI.Bytes()
			default:
				bytes += s.Tree.Bytes()
			}
		}
		rows += t.RowCount()
	}
	return float64(bytes) / float64(rows)
}

// resetPeakRSS sets the process's resident-set high-water mark back to
// what is resident now, so that a workload that runs after another in
// one process reports its own peak and not its predecessors'.
func resetPeakRSS() error {
	debug.FreeOSMemory() // or the previous workload's heap is still resident
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting the peak RSS (run one workload per process with -workload instead): %w", err)
	}
	return nil
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
