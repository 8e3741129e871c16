package main

import "slices"

// The metric catalogue: every metric the benchmark can emit, with its
// unit, direction and (end-to-end only) regression bounds. BENCHMARK.json
// at the repository root lists the gated subset; bench_test.go checks
// that the two agree.

const (
	wlAnalytic = "ch_analytic"
	wlOLTP     = "oltp_wire"
	wlHTAP     = "htap_mixed"
	wlResult   = "result_wire"
)

// workloadNames is the order workloads run and print in. BENCHMARK.json
// and README.md say why each exists.
var workloadNames = []string{wlAnalytic, wlOLTP, wlHTAP, wlResult}

type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the base median by which an end-to-end
	// metric may worsen before -compare calls it worse: the issue's table.
	Bound float64
	// Gate is the metric's bound in BENCHMARK.json, 0 when it is not
	// listed there: a listed metric must be defined and non-zero on every
	// workload.
	Gate float64
	// Workloads the metric is defined on; nil means all four.
	Workloads []string
}

func (m metricSpec) appliesTo(workload string) bool {
	return m.Workloads == nil || slices.Contains(m.Workloads, workload)
}

var txnWorkloads = []string{wlOLTP, wlHTAP}

// endToEnd is the 14 end-to-end metrics. Eight are defined and non-zero
// on every workload and gate later changes through BENCHMARK.json. The
// other six are judged by -compare alone: five exist only where the
// workload has short reads, transactions, writes or passes, and
// fail_share is zero on a healthy run (the driver gets it as attempted
// and failed counts).
//
// Two bounds, because two procedures use them. -compare takes medians
// over several runs per side and answers "unresolved" where the spread
// between runs is wider than the bound, so it keeps the bounds the issue
// set: a metric too noisy for its bound on some box is reported as such,
// not passed. The driver behind BENCHMARK.json has no such answer: it
// refuses the benchmark when the quartile spread of ten seeds exceeds a
// bound, or when the median of ten runs drifts by more than it between
// two sweeps, and wants spreads under a third of the bound. On the
// 2-core VM this was written on the spreads across ten seeds are 2 to
// 24 % for the wall-clock metrics, and the same binary's median
// ops_per_s over ten seeds of htap_mixed was 214 in one sweep and 261 in
// the next (README, "Bounds"), so their gates are the widest allowed. Allocation
// repeats to five digits for one seed and spreads by 1.8 % across seeds,
// so it keeps the issue's 3 %. Peak RSS depends on where the collector
// is when a hash join allocates: 7 % across ten runs of ch_analytic,
// whatever the seeds, gated at 15 %.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.20, Gate: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.10, Gate: 0.25},
	{Name: "read_p95_ms", Unit: "ms", Better: "lower", Bound: 0.10, Gate: 0.25},
	{Name: "query_geomean_ms", Unit: "ms", Better: "lower", Bound: 0.10, Gate: 0.25},
	{Name: "rows_per_s", Unit: "1/s", Better: "higher", Bound: 0.10, Gate: 0.25},
	{Name: "alloc_kb_per_op", Unit: "kB", Better: "lower", Bound: 0.03, Gate: 0.03},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.10, Gate: 0.15},
	{Name: "space_bytes_per_row", Unit: "B/row", Better: "lower", Bound: 0.02, Gate: 0.02},
	{Name: "read_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10, Workloads: []string{wlOLTP, wlHTAP, wlResult}},
	{Name: "txn_per_s", Unit: "1/s", Better: "higher", Bound: 0.10, Workloads: txnWorkloads},
	{Name: "write_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10, Workloads: txnWorkloads},
	{Name: "write_p95_ms", Unit: "ms", Better: "lower", Bound: 0.10, Workloads: txnWorkloads},
	{Name: "pass_s", Unit: "s", Better: "lower", Bound: 0.10, Workloads: []string{wlAnalytic}},
	{Name: "fail_share", Unit: "share", Better: "lower", Bound: 0},
}

// perLayer is the traced run's metrics, one prefix per repo module.
// Every workload emits all of them; a layer the workload bypasses
// reads 0.
var perLayer = []metricSpec{
	{Name: "hybridsql.exec_us", Unit: "us", Better: "lower"},
	{Name: "hybridsql.client_self_us", Unit: "us", Better: "lower"},
	{Name: "hybridsql.client_self_ns_per_row", Unit: "ns/row", Better: "lower"},

	{Name: "wire.server_us", Unit: "us", Better: "lower"},
	{Name: "wire.self_us", Unit: "us", Better: "lower"},
	{Name: "wire.encode_ns_per_row", Unit: "ns/row", Better: "lower"},
	{Name: "wire.decode_ns_per_row", Unit: "ns/row", Better: "lower"},
	{Name: "wire.bytes_out_per_row", Unit: "B/row", Better: "lower"},
	{Name: "wire.bytes_in_per_stmt", Unit: "B", Better: "lower"},
	{Name: "wire.frames_per_stmt", Unit: "count", Better: "lower"},
	{Name: "wire.conn_writes_per_stmt", Unit: "count", Better: "lower"},

	{Name: "session.admission_waits", Unit: "count", Better: "lower"},
	{Name: "session.sessions_open", Unit: "count", Better: "lower"},
	{Name: "session.reader_overlap_share", Unit: "share", Better: "higher"},

	{Name: "sql.parse_us", Unit: "us", Better: "lower"},
	{Name: "sql.parse_ns_per_byte", Unit: "ns/B", Better: "lower"},
	{Name: "sql.bind_us", Unit: "us", Better: "lower"},
	{Name: "sql.normalize_us", Unit: "us", Better: "lower"},

	{Name: "optimizer.optimize_us", Unit: "us", Better: "lower"},
	{Name: "optimizer.optimize_after_write_us", Unit: "us", Better: "lower"},
	{Name: "optimizer.optimize_steady_us", Unit: "us", Better: "lower"},

	{Name: "exec.execute_us", Unit: "us", Better: "lower"},
	{Name: "exec.agg_ms", Unit: "ms", Better: "lower"},
	{Name: "exec.join_ms", Unit: "ms", Better: "lower"},
	{Name: "exec.sort_ms", Unit: "ms", Better: "lower"},
	{Name: "exec.scan_ms", Unit: "ms", Better: "lower"},
	{Name: "exec.ns_per_row_out", Unit: "ns/row", Better: "lower"},
	{Name: "exec.wall_over_virtual_agg", Unit: "ratio", Better: "lower"},
	{Name: "exec.wall_over_virtual_join", Unit: "ratio", Better: "lower"},
	{Name: "exec.wall_over_virtual_sort", Unit: "ratio", Better: "lower"},
	{Name: "exec.wall_over_virtual_scan", Unit: "ratio", Better: "lower"},

	{Name: "colstore.scan_ns_per_row", Unit: "ns/row", Better: "lower"},
	{Name: "colstore.kernel_scan_ns_per_row", Unit: "ns/row", Better: "lower"},
	{Name: "colstore.insert_us", Unit: "us", Better: "lower"},
	{Name: "colstore.tuplemove_ms_per_krow", Unit: "ms/krow", Better: "lower"},
	{Name: "colstore.bytes_per_row", Unit: "B/row", Better: "lower"},
	{Name: "colstore.delta_rows_end", Unit: "count", Better: "lower"},
	{Name: "colstore.inline_compactions", Unit: "count", Better: "lower"},

	{Name: "btree.seek_us", Unit: "us", Better: "lower"},
	{Name: "btree.range_ns_per_row", Unit: "ns/row", Better: "lower"},
	{Name: "btree.insert_us", Unit: "us", Better: "lower"},
	{Name: "btree.height", Unit: "count", Better: "lower"},
	{Name: "btree.bytes_per_row", Unit: "B/row", Better: "lower"},

	{Name: "table.insert_bplus_us", Unit: "us", Better: "lower"},
	{Name: "table.insert_hybrid_us", Unit: "us", Better: "lower"},
	{Name: "table.secondary_maint_share", Unit: "share", Better: "lower"},

	{Name: "engine.exec_stmt_select_us", Unit: "us", Better: "lower"},
	{Name: "engine.exec_stmt_insert_us", Unit: "us", Better: "lower"},
	{Name: "engine.exec_stmt_update_us", Unit: "us", Better: "lower"},
	{Name: "engine.exec_stmt_delete_us", Unit: "us", Better: "lower"},
	{Name: "engine.overhead_us", Unit: "us", Better: "lower"},
	{Name: "engine.mover_steps", Unit: "count", Better: "higher"},
	{Name: "engine.mover_rows_moved", Unit: "count", Better: "higher"},
	{Name: "engine.mover_aborts", Unit: "count", Better: "lower"},
	{Name: "engine.debt_rows_end", Unit: "count", Better: "lower"},
	{Name: "engine.stmt_gap_p99_ms", Unit: "ms", Better: "lower"},

	{Name: "querystore.record_us", Unit: "us", Better: "lower"},

	{Name: "runtime.mallocs_per_op", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_cpu_share", Unit: "share", Better: "lower"},
	{Name: "runtime.gc_pause_total_ms", Unit: "ms", Better: "lower"},

	{Name: "bench.machine_probe_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.trace_overhead_share", Unit: "share", Better: "lower"},
	{Name: "bench.accounted_share", Unit: "share", Better: "higher"},
}
