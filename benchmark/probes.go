package main

import (
	"fmt"
	"math/rand"
	"time"

	"hybriddb/internal/btree"
	"hybriddb/internal/colstore"
	"hybriddb/internal/engine"
	"hybriddb/internal/sql"
	"hybriddb/internal/storage"
	"hybriddb/internal/value"
	"hybriddb/internal/vclock"
)

// Storage probes run once per traced workload, after the statement
// stream, against the indexes that stream left behind. They call the
// storage layers' own functions, which no statement timing can isolate.
// Each result is a per-layer metric by name.

// scanReps is how many times a columnstore scan probe repeats; the
// median is reported.
const scanReps = 5

func usOf(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func medianDur(ds []time.Duration) time.Duration {
	v := make([]float64, len(ds))
	for i, d := range ds {
		v[i] = float64(d)
	}
	return time.Duration(median(v))
}

// colstoreProbes measures the orderline columnstore: scans on the live
// index under the shared statement lock, delta insert and tuple move on
// a standalone copy. A design without the index reads 0 throughout.
func colstoreProbes(db *engine.Database, sc scale, out map[string]float64) {
	tbl := db.Table("orderline")
	sec := tbl.SecondaryCSI()
	if sec == nil {
		return
	}
	x := sec.CSI
	model := db.Model()
	// The columns CH Q1 and Q6 read.
	var cols []int
	for _, name := range []string{"ol_number", "ol_quantity", "ol_amount", "ol_delivery_d"} {
		cols = append(cols, tbl.Schema.Ordinal(name))
	}
	// ol_number = 3 keeps about a tenth of the rows: every order has
	// lines 0..4 and ten lines on average.
	pred := colstore.Pred{Col: tbl.Schema.Ordinal("ol_number"), Op: colstore.PredEQ, Val: value.NewInt(3)}

	sm := db.SessionManager()
	sm.RLock()
	scan := func(preds []colstore.Pred) float64 {
		var durs []time.Duration
		for i := 0; i < scanReps; i++ {
			t0 := time.Now()
			s := x.NewScanner(vclock.NewTracker(model), colstore.ScanSpec{Cols: cols, PruneCol: -1, Preds: preds})
			for s.Next() {
			}
			durs = append(durs, time.Since(t0))
		}
		return float64(medianDur(durs)) / float64(x.Rows())
	}
	out["colstore.scan_ns_per_row"] = scan(nil)
	out["colstore.kernel_scan_ns_per_row"] = scan([]colstore.Pred{pred})
	out["colstore.bytes_per_row"] = float64(x.Bytes()) / float64(x.Rows())
	for _, t := range db.Tables() {
		if s := t.SecondaryCSI(); s != nil {
			out["colstore.delta_rows_end"] += float64(s.CSI.DeltaRows())
			out["colstore.inline_compactions"] += float64(s.CSI.InlineCompactions())
		}
	}
	rows := x.ScanRows(vclock.NewTracker(model), nil)
	sm.RUnlock()

	// Standalone copy: a few rowgroups are enough to time a delta insert
	// and a tuple move, and leave the live index as the stream left it.
	base := 4 * x.RowGroupSize()
	if base > len(rows)/2 {
		base = len(rows) / 2
	}
	uid := x.Schema().Len() - 1
	cp := colstore.Build(storage.NewStore(0), colstore.Config{
		Schema:       x.Schema(),
		KeyOrdinals:  []int{uid},
		RowGroupSize: x.RowGroupSize(),
	}, rows[:base], nil)
	cp.SetHighWater(func() {}) // time the delta insert alone; the move is timed below
	n := sc.probeOps
	if n > len(rows)-base {
		n = len(rows) - base
	}
	tr := vclock.NewTracker(model)
	durs := make([]time.Duration, n)
	for i := 0; i < n; i++ {
		row := rows[base+i]
		t0 := time.Now()
		cp.Insert(tr, row)
		durs[i] = time.Since(t0)
	}
	out["colstore.insert_us"] = usOf(medianDur(durs))
	t0 := time.Now()
	cp.TupleMove(tr)
	out["colstore.tuplemove_ms_per_krow"] = msOf(time.Since(t0)) / (float64(n) / 1000)
}

// btreeProbes measures the clustered trees the point statements seek.
func btreeProbes(db *engine.Database, sc scale, seed int64, out map[string]float64) {
	rng := rand.New(rand.NewSource(seed*7919 + 20))
	cfg := sc.ch
	model := db.Model()
	sm := db.SessionManager()
	sm.RLock()
	ol := db.Table("orderline").Clustered()
	trees := []*btree.Tree{ol, db.Table("stock").Clustered(), db.Table("ch_customer").Clustered()}
	// The keys OrderStatus, NewOrder and Payment look up.
	keyOf := []func() value.Row{
		func() value.Row {
			return value.Row{value.NewInt(int64(rng.Intn(cfg.Warehouses))), value.NewInt(int64(rng.Intn(cfg.DistrictsPerW))), value.NewInt(int64(rng.Intn(cfg.OrdersPerD)))}
		},
		func() value.Row {
			return value.Row{value.NewInt(int64(rng.Intn(cfg.Warehouses))), value.NewInt(int64(rng.Intn(cfg.ItemCount)))}
		},
		func() value.Row {
			return value.Row{value.NewInt(int64(rng.Intn(cfg.Warehouses))), value.NewInt(int64(rng.Intn(cfg.DistrictsPerW))), value.NewInt(int64(rng.Intn(cfg.CustomersPerD)))}
		},
	}
	tr := vclock.NewTracker(model)
	var seeks []time.Duration
	var bytes, count int64
	for ti, t := range trees {
		for i := 0; i < sc.probeOps; i++ {
			key := keyOf[ti]()
			t0 := time.Now()
			if it := t.Seek(tr, key); it.Valid() {
				_ = it.Row()
			}
			seeks = append(seeks, time.Since(t0))
		}
		bytes += t.Bytes()
		count += t.Count()
	}
	out["btree.seek_us"] = usOf(medianDur(seeks))
	out["btree.height"] = float64(ol.Height())
	out["btree.bytes_per_row"] = float64(bytes) / float64(count)

	// Range: one seek, then the leaf chain.
	var ranges []time.Duration
	rangeRows := 0
	for i := 0; i < scanReps; i++ {
		t0 := time.Now()
		it := ol.Seek(tr, value.Row{value.NewInt(int64(rng.Intn(cfg.Warehouses)))})
		n := 0
		for ; it.Valid() && n < 10*sc.probeOps; n++ {
			_ = it.Row()
			it.Next()
		}
		ranges = append(ranges, time.Since(t0))
		rangeRows = n
	}
	if rangeRows > 0 {
		out["btree.range_ns_per_row"] = float64(medianDur(ranges)) / float64(rangeRows)
	}

	// Standalone copy of the head of the orderline tree for inserts.
	var items []btree.Item
	for it := ol.First(tr); it.Valid() && len(items) < 10*sc.probeOps; it.Next() {
		items = append(items, btree.Item{Key: it.Key().Clone(), Row: it.Row().Clone()})
	}
	sm.RUnlock()
	cp := btree.New(storage.NewStore(0))
	cp.BulkLoad(nil, items)
	durs := make([]time.Duration, sc.probeOps)
	for i := range durs {
		src := items[rng.Intn(len(items))]
		key := src.Key.Clone()
		key[len(key)-1] = value.NewInt(int64(1<<40 + i)) // a fresh UID: same neighbourhood, new entry
		t0 := time.Now()
		cp.Insert(tr, key, src.Row)
		durs[i] = time.Since(t0)
	}
	out["btree.insert_us"] = usOf(medianDur(durs))
}

// tableInsertProbe times an INSERT decomposed as ParseOne → BindInsert
// → Table.Insert, which is all engine.execInsert does, and returns the
// median. The exclusive statement lock is held because the mover may be
// running.
func tableInsertProbe(db *engine.Database, sc scale, seed int64) (time.Duration, error) {
	rng := rand.New(rand.NewSource(seed*7919 + 21))
	cfg := sc.ch
	sm := db.SessionManager()
	durs := make([]time.Duration, sc.probeOps)
	for i := range durs {
		text := fmt.Sprintf("INSERT INTO orderline VALUES (%d, %d, %d, %d, %d, %d, 5, 500.0, '2007-06-02')",
			rng.Intn(cfg.Warehouses), rng.Intn(cfg.DistrictsPerW), 2000000+i, i%10, rng.Intn(cfg.ItemCount), rng.Intn(cfg.Warehouses))
		t0 := time.Now()
		st, err := sql.ParseOne(text)
		if err != nil {
			return 0, err
		}
		sm.Lock()
		bound, err := sql.NewBinder(db).BindInsert(st.(*sql.InsertStmt))
		if err == nil {
			tbl := db.Table(bound.Table)
			tr := vclock.NewTracker(db.Model())
			for _, r := range bound.Rows {
				tbl.Insert(tr, r)
			}
		}
		sm.Unlock()
		durs[i] = time.Since(t0)
		if err != nil {
			return 0, err
		}
	}
	return medianDur(durs), nil
}

// tableProbes times the decomposed INSERT on the database the stream
// ran on and on a fresh database of the other design; the difference is
// what maintaining the hybrid design's secondaries costs a write.
func tableProbes(db *engine.Database, def workloadDef, sc scale, seed int64, out map[string]float64) error {
	other := designBplus
	if def.design == designBplus {
		other = designHybrid
	}
	otherDB, err := buildDB(seed, sc, other, 0)
	if err != nil {
		return err
	}
	byDesign := map[string]*engine.Database{def.design: db, other: otherDB}
	for design, d := range byDesign {
		med, err := tableInsertProbe(d, sc, seed)
		if err != nil {
			return fmt.Errorf("table insert probe on %s: %w", design, err)
		}
		out["table.insert_"+design+"_us"] = usOf(med)
	}
	if h := out["table.insert_hybrid_us"]; h > 0 {
		out["table.secondary_maint_share"] = 1 - out["table.insert_bplus_us"]/h
	}
	return nil
}
