package experiments

import (
	"fmt"
	"time"

	"hybriddb/internal/advisor"
	"hybriddb/internal/colstore"
	"hybriddb/internal/engine"
	"hybriddb/internal/storage"
	"hybriddb/internal/value"
	"hybriddb/internal/vclock"
	"hybriddb/internal/workload"
)

// Ablations runs the design-choice ablations DESIGN.md calls out.
func Ablations(quick bool) []*Table {
	return []*Table{
		ablElimination(quick),
		ablBatchMode(quick),
		ablDeleteBuffer(quick),
		ablSizeEstimation(quick),
		ablIndexMerging(quick),
		ablSortOrder(quick),
		ablDeviceSensitivity(quick),
		ablStorageBudget(quick),
	}
}

// ablElimination measures segment elimination on a pre-sorted CSI.
func ablElimination(quick bool) *Table {
	db, cfg := buildMicroDesign(quick, true, "csi")
	t := &Table{ID: "ablation-elimination", Title: "Segment elimination on a sorted CSI (cold, 1% selectivity)",
		Header: []string{"variant", "exec", "data read (MB)"}}
	q := workload.Q1(0.01, cfg.MaxValue)
	db.Store().Cool()
	on := mustExec(db, q).Metrics
	db.Store().Cool()
	off := mustExec(db, q, engine.ExecOptions{NoElimination: true}).Metrics
	t.AddRow("elimination on", on.ExecTime, fmt.Sprintf("%.2f", float64(on.DataRead)/1e6))
	t.AddRow("elimination off", off.ExecTime, fmt.Sprintf("%.2f", float64(off.DataRead)/1e6))
	return t
}

// ablBatchMode measures batch- vs. row-mode costing of a full CSI scan.
func ablBatchMode(quick bool) *Table {
	db, cfg := buildMicroDesign(quick, false, "csi")
	db.SetModel(vclock.DefaultModel(vclock.DRAM))
	t := &Table{ID: "ablation-batchmode", Title: "Batch vs. row mode, full columnstore scan (hot)",
		Header: []string{"variant", "cpu", "exec"}}
	q := workload.Q1(1.0, cfg.MaxValue)
	batch := mustExec(db, q).Metrics
	row := mustExec(db, q, engine.ExecOptions{NoBatchMode: true}).Metrics
	t.AddRow("batch mode", batch.CPUTime, batch.ExecTime)
	t.AddRow("row mode", row.CPUTime, row.ExecTime)
	return t
}

// ablDeleteBuffer compares the secondary-CSI delete buffer against the
// primary-CSI delete bitmap (which must locate rows by scan).
func ablDeleteBuffer(quick bool) *Table {
	rows := 200_000
	if quick {
		rows = 50_000
	}
	sch := value.NewSchema(
		value.Column{Name: "pk", Kind: value.KindInt},
		value.Column{Name: "v", Kind: value.KindInt},
	)
	data := make([]value.Row, rows)
	for i := range data {
		data[i] = value.Row{value.NewInt(int64(i)), value.NewInt(int64(i % 97))}
	}
	m := vclock.DefaultModel(vclock.DRAM)
	build := func(primary bool) *colstore.Index {
		st := storage.NewStore(0)
		cfg := colstore.Config{Schema: sch, Primary: primary, RowGroupSize: 8192}
		if !primary {
			cfg.KeyOrdinals = []int{0}
		}
		return colstore.Build(st, cfg, data, nil)
	}
	const deletes = 100
	t := &Table{ID: "ablation-deletebuffer", Title: fmt.Sprintf("Deleting %d rows from a columnstore", deletes),
		Header: []string{"mechanism", "cpu", "scan probe overhead"}}

	// Secondary: delete buffer (cheap logical delete, later anti-join).
	sec := build(false)
	trSec := vclock.NewTracker(m)
	for i := 0; i < deletes; i++ {
		sec.BufferDelete(trSec, value.Row{value.NewInt(int64(i * 10))})
	}
	// One scan paying the anti-semi join.
	scanTr := vclock.NewTracker(m)
	sc := sec.NewScanner(scanTr, colstore.ScanSpec{PruneCol: -1})
	for sc.Next() {
	}

	// Primary: locate by scan, then mark the delete bitmap.
	pri := build(true)
	trPri := vclock.NewTracker(m)
	var locs []colstore.Locator
	want := map[int64]bool{}
	for i := 0; i < deletes; i++ {
		want[int64(i*10)] = true
	}
	psc := pri.NewScanner(trPri, colstore.ScanSpec{Cols: []int{0}, PruneCol: -1})
	var probed int64
	for psc.Next() {
		b := psc.Batch()
		ls := psc.Locators()
		for i := 0; i < b.Len(); i++ {
			probed++
			if want[b.Cols[0].I[b.LiveIndex(i)]] {
				locs = append(locs, ls[i])
			}
		}
	}
	trPri.ChargeParallelCPU(vclock.CPU(probed, m.HashCPU), 1.0)
	for _, l := range locs {
		pri.DeleteAt(trPri, l)
	}
	cleanScan := vclock.NewTracker(m)
	csc := pri.NewScanner(cleanScan, colstore.ScanSpec{PruneCol: -1})
	for csc.Next() {
	}

	t.AddRow("delete buffer (secondary)", trSec.CPUTime(), scanTr.CPUTime()-cleanScan.CPUTime())
	t.AddRow("delete bitmap (primary, locate by scan)", trPri.CPUTime(), time.Duration(0))
	return t
}

// ablSizeEstimation compares the GEE and black-box CSI size estimators
// against the materialized truth on TPC-H lineitem.
func ablSizeEstimation(quick bool) *Table {
	db := workload.BuildTPCH(vclock.DefaultModel(vclock.DRAM), tpchConfig(quick))
	li := db.Table("lineitem")
	sec := li.AddSecondaryCSI(nil, "truth")
	t := &Table{ID: "ablation-sizeest", Title: "Columnstore size estimation on lineitem",
		Header: []string{"method", "estimate (MB)", "actual (MB)", "ratio", "time"}}
	var actual int64
	for c := 0; c < li.Schema.Len(); c++ {
		actual += sec.CSI.ColumnBytes(c)
	}
	for _, method := range []advisor.SizeMethod{advisor.SizeBlackBox, advisor.SizeGEE} {
		start := time.Now()
		_, perCol := advisor.EstimateCSISize(li, method)
		elapsed := time.Since(start)
		var est int64
		for _, b := range perCol {
			est += b
		}
		t.AddRow(method.String(),
			fmt.Sprintf("%.2f", float64(est)/1e6),
			fmt.Sprintf("%.2f", float64(actual)/1e6),
			fmt.Sprintf("%.2f", float64(est)/float64(actual)),
			fmt.Sprintf("%v", elapsed.Round(time.Millisecond)))
	}
	return t
}

// ablIndexMerging compares DTA with and without the merging step.
func ablIndexMerging(quick bool) *Table {
	scale := workload.TPCDSScale(0.3)
	if quick {
		scale = 0.1
	}
	build := func() (*engine.Database, advisor.Workload) {
		db, queries := workload.BuildTPCDS(vclock.DefaultModel(vclock.DRAM), scale)
		w := make(advisor.Workload, 0, 20)
		for _, q := range queries[:20] {
			w = append(w, advisor.Statement{SQL: q})
		}
		return db, w
	}
	t := &Table{ID: "ablation-merging", Title: "DTA index merging (20 TPC-DS queries)",
		Header: []string{"variant", "indexes", "total bytes (MB)", "est workload cost"}}
	for _, noMerge := range []bool{false, true} {
		db, w := build()
		rec, err := advisor.Tune(db, w, advisor.Options{NoMerging: noMerge, MaxIndexes: 10})
		if err != nil {
			panic(err)
		}
		name := "merging on"
		if noMerge {
			name = "merging off"
		}
		t.AddRow(name, len(rec.Indexes),
			fmt.Sprintf("%.2f", float64(rec.TotalBytes)/1e6), rec.RecommendedCost)
	}
	return t
}

// ablSortOrder compares columnstore compression with and without the
// greedy within-rowgroup sort (Figure 8's VertiPaq-style ordering).
func ablSortOrder(quick bool) *Table {
	rows := 200_000
	if quick {
		rows = 50_000
	}
	// Low-cardinality columns in shuffled input order: the greedy sort
	// restores long runs (Figure 8), which is where RLE wins.
	sch := value.NewSchema(
		value.Column{Name: "low", Kind: value.KindInt},
		value.Column{Name: "mid", Kind: value.KindInt},
	)
	data := make([]value.Row, rows)
	for i := range data {
		h := int64(i) * 2654435761 % int64(rows)
		data[i] = value.Row{
			value.NewInt(h % 7),
			value.NewInt(h % 997),
		}
	}
	t := &Table{ID: "ablation-sortorder", Title: "Within-rowgroup greedy sort (compression)",
		Header: []string{"variant", "bytes (MB)", "vs unsorted"}}
	var sizes []int64
	for _, noSort := range []bool{true, false} {
		st := storage.NewStore(0)
		idx := colstore.Build(st, colstore.Config{
			Schema: sch, Primary: true, RowGroupSize: 1 << 16, NoGroupSort: noSort,
		}, data, nil)
		sizes = append(sizes, idx.Bytes())
	}
	t.AddRow("unsorted", fmt.Sprintf("%.2f", float64(sizes[0])/1e6), "1.00x")
	t.AddRow("greedy sort", fmt.Sprintf("%.2f", float64(sizes[1])/1e6),
		fmt.Sprintf("%.2fx", float64(sizes[0])/float64(sizes[1])))
	return t
}

// ablStorageBudget sweeps DTA's storage-budget constraint (Section
// 4.1): tighter budgets trade estimated workload cost for index bytes;
// the recommendation must always fit the budget and degrade
// gracefully.
func ablStorageBudget(quick bool) *Table {
	scale := workload.TPCDSScale(0.3)
	if quick {
		scale = 0.1
	}
	db, queries := workload.BuildTPCDS(vclock.DefaultModel(vclock.DRAM), scale)
	w := make(advisor.Workload, 0, 20)
	for _, q := range queries[:20] {
		w = append(w, advisor.Statement{SQL: q})
	}
	unbounded, err := advisor.Tune(db, w, advisor.Options{MaxIndexes: 10})
	if err != nil {
		panic(err)
	}
	t := &Table{ID: "ablation-budget", Title: "DTA under a storage budget (20 TPC-DS queries)",
		Header: []string{"budget", "indexes", "bytes (MB)", "est cost", "vs unbounded"}}
	t.AddRow("unlimited", len(unbounded.Indexes),
		fmt.Sprintf("%.2f", float64(unbounded.TotalBytes)/1e6),
		unbounded.RecommendedCost, "1.00x")
	for _, fraction := range []float64{0.5, 0.25, 0.1} {
		budget := int64(float64(unbounded.TotalBytes) * fraction)
		rec, err := advisor.Tune(db, w, advisor.Options{MaxIndexes: 10, StorageBudget: budget})
		if err != nil {
			panic(err)
		}
		if rec.TotalBytes > budget {
			panic("budget violated")
		}
		t.AddRow(fmt.Sprintf("%.0f%%", fraction*100), len(rec.Indexes),
			fmt.Sprintf("%.2f", float64(rec.TotalBytes)/1e6),
			rec.RecommendedCost,
			fmt.Sprintf("%.2fx", float64(rec.RecommendedCost)/float64(unbounded.RecommendedCost)))
	}
	return t
}

// ablDeviceSensitivity tests the paper's claim that the B+-tree/CSI
// crossover depends on the storage medium: "the slower the storage,
// the higher the crossover point" (Section 3.2.3). Memory-resident,
// SSD, and HDD data give monotonically increasing crossovers.
func ablDeviceSensitivity(quick bool) *Table {
	grid := []float64{0.05, 0.1, 0.5, 1, 2, 4, 6, 8, 10, 12, 15, 20, 30, 50}
	t := &Table{ID: "ablation-device", Title: "B+/CSI exec crossover by storage device (cold; dram = hot)",
		Header: []string{"device", "crossover sel%"}}
	for _, dev := range []vclock.DeviceProfile{vclock.DRAM, vclock.SSD, vclock.HDD} {
		cfg := workload.DefaultMicro()
		cfg.Rows = microRows(quick)
		cfg.RowGroupSize = 4096
		mk := func(ddl string) *engine.Database {
			db := workload.BuildMicro(vclock.DefaultModel(dev), cfg)
			mustExec(db, ddl)
			return db
		}
		bt := mk("CREATE CLUSTERED INDEX cix ON t (col1)")
		cs := mk("CREATE CLUSTERED COLUMNSTORE INDEX cci ON t")
		crossover := "> " + fmt.Sprintf("%g", grid[len(grid)-1])
		for _, pct := range grid {
			q := workload.Q1(pct/100, cfg.MaxValue)
			bt.Store().Cool()
			b := mustExec(bt, q).Metrics.ExecTime
			cs.Store().Cool()
			c := mustExec(cs, q).Metrics.ExecTime
			if b > c {
				crossover = fmt.Sprintf("%g", pct)
				break
			}
		}
		t.AddRow(dev.Name, crossover)
	}
	return t
}
