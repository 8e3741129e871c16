// Command hybridbench regenerates the paper's tables and figures.
//
// Usage:
//
//	hybridbench                     # run every experiment (full scale)
//	hybridbench -experiment fig1    # run one experiment
//	hybridbench -quick              # reduced scale (fast smoke run)
//	hybridbench -list               # list experiment IDs
//	hybridbench -metrics :8080      # also serve /metrics while running
//	hybridbench -capture out.jsonl  # capture-and-tune demo: run the CH
//	                                # analytics once with a query store,
//	                                # export the capture, feed it back to
//	                                # the advisor, print the DDL
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"hybriddb"
	"hybriddb/internal/experiments"
	"hybriddb/internal/vclock"
	"hybriddb/internal/workload"
)

func main() {
	var (
		expID       = flag.String("experiment", "", "experiment ID to run (default: all)")
		quick       = flag.Bool("quick", false, "reduced data scale for fast runs")
		list        = flag.Bool("list", false, "list experiment IDs and exit")
		metricsAddr = flag.String("metrics", "", "serve /metrics on this address while running (empty = off)")
		capturePath = flag.String("capture", "", "run the capture-and-tune demo, writing the workload capture to this path")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments.Registry() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}
	if *capturePath != "" {
		if err := captureAndTune(*capturePath, *quick); err != nil {
			fmt.Fprintf(os.Stderr, "capture: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *metricsAddr != "" {
		if _, err := hybriddb.ServeMetrics(*metricsAddr); err != nil {
			fmt.Fprintf(os.Stderr, "metrics server: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("metrics on http://%s/metrics\n", *metricsAddr)
	}

	run := func(e experiments.Experiment) {
		start := time.Now()
		for _, t := range e.Run(*quick) {
			t.Fprint(os.Stdout)
		}
		fmt.Printf("[%s completed in %v]\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}

	if *expID != "" {
		e, ok := experiments.Find(*expID)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *expID)
			os.Exit(1)
		}
		run(e)
	} else {
		for _, e := range experiments.Registry() {
			run(e)
		}
	}
	printCounters()
}

// captureAndTune demonstrates the query-store → advisor loop: run the
// CH analytic queries against an untuned CH database with a query
// store attached, export the capture to path, then feed the capture
// back to the advisor and print the recommended DDL.
func captureAndTune(path string, quick bool) error {
	cfg := workload.DefaultCH()
	if quick {
		cfg.Warehouses = 1
		cfg.OrdersPerD = 100
	}
	fmt.Println("building CH database...")
	db := hybriddb.Wrap(workload.BuildCH(vclock.DefaultModel(vclock.DRAM), cfg))
	db.EnableQueryStore(hybriddb.QueryStoreOptions{})

	queries := workload.CHQueries()
	fmt.Printf("capturing %d CH analytic queries...\n", len(queries))
	for _, q := range queries {
		if _, err := db.Exec(q); err != nil {
			return fmt.Errorf("CH query: %w", err)
		}
	}

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := db.ExportWorkloadCapture(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("capture written to %s (%d fingerprints)\n", path, len(db.QueryStats()))

	g, err := os.Open(path)
	if err != nil {
		return err
	}
	defer g.Close()
	start := time.Now()
	rec, err := db.TuneFromCapture(g, hybriddb.TuneOptions{})
	if err != nil {
		return err
	}
	fmt.Printf("advisor on captured workload (%v): estimated %.1fx improvement\n",
		time.Since(start).Round(time.Millisecond), rec.Improvement())
	for i, p := range rec.Indexes {
		fmt.Println("  " + p.DDL(fmt.Sprintf("dta_%s_%d", p.Table, i+1)))
	}
	return nil
}

// printCounters summarizes the engine's cumulative observability
// counters for the whole bench run.
func printCounters() {
	snap := hybriddb.MetricsSnapshot()
	hits, misses := snap["hybriddb_pool_hits_total"], snap["hybriddb_pool_misses_total"]
	ratio := 0.0
	if hits+misses > 0 {
		ratio = hits / (hits + misses)
	}
	fmt.Println("cumulative engine counters:")
	fmt.Printf("  statements executed     %.0f\n", snap["hybriddb_statements_total"])
	fmt.Printf("  data read               %.1f MB\n", snap["hybriddb_data_read_bytes_total"]/1e6)
	fmt.Printf("  data written            %.1f MB\n", snap["hybriddb_data_written_bytes_total"]/1e6)
	fmt.Printf("  buffer pool hit ratio   %.1f%% (%.0f hits / %.0f misses)\n", 100*ratio, hits, misses)
	fmt.Printf("  rowgroups scanned       %.0f\n", snap["hybriddb_rowgroups_scanned_total"])
	fmt.Printf("  rowgroups pruned        %.0f\n", snap["hybriddb_rowgroups_pruned_total"])
	fmt.Printf("  B+ tree page splits     %.0f\n", snap["hybriddb_btree_splits_total"])
	fmt.Printf("  tuple-mover compactions %.0f\n", snap["hybriddb_tuplemover_compactions_total"])
	fmt.Printf("  optimizer plans costed  %.0f\n", snap["hybriddb_optimizer_plans_total"])
	fmt.Printf("  advisor what-if calls   %.0f\n", snap["hybriddb_advisor_whatif_calls_total"])
}
