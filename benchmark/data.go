package main

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"

	"hybriddb/internal/engine"
	"hybriddb/internal/vclock"
	"hybriddb/internal/workload"
)

// The two frozen physical designs. bplus is what BuildCH creates:
// clustered B+ tree primaries only. hybrid adds the indexes DTA
// recommended for the CH workload at the seed commit. They are created
// by DDL here, never by running the advisor, so that a change to the
// advisor cannot move the benchmark.
const (
	designBplus  = "bplus"
	designHybrid = "hybrid"
)

var hybridDDL = []string{
	"CREATE NONCLUSTERED COLUMNSTORE INDEX csi_orderline ON orderline",
	"CREATE NONCLUSTERED COLUMNSTORE INDEX csi_stock ON stock",
	"CREATE NONCLUSTERED COLUMNSTORE INDEX csi_oorder ON oorder",
	"CREATE NONCLUSTERED COLUMNSTORE INDEX csi_customer ON ch_customer",
	"CREATE NONCLUSTERED COLUMNSTORE INDEX csi_item ON ch_item",
	"CREATE INDEX ix_ol_item ON orderline (ol_i_id) INCLUDE (ol_amount, ol_quantity)",
	"CREATE INDEX ix_ol_order ON orderline (ol_o_id) INCLUDE (ol_w_id, ol_d_id, ol_amount)",
	"CREATE INDEX ix_stock_item ON stock (s_i_id) INCLUDE (s_quantity)",
}

// scale fixes the data size and the operation counts of a run. Run
// length is an operation count, not a duration, so that both sides of a
// comparison do the same work and final table contents can be checked
// against goldens.
type scale struct {
	// name selects the golden section ("full" or "tiny").
	name string
	ch   workload.CHConfig // Seed and RowGroupSize are set per run

	passes        int // ch_analytic: passes over the 25 queries
	oltpTxns      int // oltp_wire: transactions
	htapRounds    int // htap_mixed: rounds of 10 write txns + 4 read txns + 1 query
	resultQueries int // result_wire: queries per client
	smallRowGroup int // htap_mixed: rows per columnstore rowgroup
	warmTxns      int // untimed warm-up transactions in the txn workloads
	setups        int // times the data is built to take setup_s as a median
	probeOps      int // operations per storage probe in a traced run
}

// Operations per second of run length on the 2-core reference box at
// the seed commit; --seconds is turned into operation counts with these
// so that a run measures for about that long.
const (
	passSeconds     = 3.7  // one 25-query pass
	oltpTxnPerSec   = 43.0 // oltp_wire transactions
	htapRoundPerSec = 2.75 // htap_mixed rounds
	resultQPerSec   = 35.0 // result_wire queries per client
)

// fullScale is DefaultCH data with operation counts for a run of about
// the given number of seconds. A traced run does the work twice (once
// untraced for the overhead figure) or three times (wire workloads
// replay on a twin), so it gets the floor the issue allows: 3 passes,
// 300 transactions (33 rounds have 330 write transactions, two clients
// of 150 have 300 queries).
func fullScale(seconds int, traced bool) scale {
	sc := scale{name: "full", ch: workload.DefaultCH(), smallRowGroup: 2048, warmTxns: 100, setups: 3, probeOps: 2000}
	s := float64(seconds)
	sc.passes = atLeast(2, s/passSeconds)
	sc.oltpTxns = atLeast(100, s*oltpTxnPerSec)
	sc.htapRounds = atLeast(11, s*htapRoundPerSec)
	sc.resultQueries = atLeast(12, s*resultQPerSec)
	if traced {
		sc.setups = 1
		sc.passes = 3
		sc.oltpTxns = 300
		sc.htapRounds = 33
		sc.resultQueries = 150
	}
	return sc
}

// tinyScale is the self-test's scale: one small warehouse, one pass,
// twenty transactions.
func tinyScale() scale {
	return scale{
		name: "tiny",
		ch: workload.CHConfig{Warehouses: 1, DistrictsPerW: 2, CustomersPerD: 30,
			ItemCount: 100, OrdersPerD: 40, RowGroupSize: 256},
		passes: 1, oltpTxns: 20, htapRounds: 2, resultQueries: 3,
		smallRowGroup: 64, warmTxns: 5, setups: 1, probeOps: 50,
	}
}

func atLeast(floor int, v float64) int {
	return max(floor, int(v+0.5))
}

// buildDB generates the CH data for seed and applies a design.
// rowGroupSize 0 keeps the scale's default.
func buildDB(seed int64, sc scale, design string, rowGroupSize int) (*engine.Database, error) {
	cfg := sc.ch
	cfg.Seed = seed
	if rowGroupSize > 0 {
		cfg.RowGroupSize = rowGroupSize
	}
	db := workload.BuildCH(vclock.DefaultModel(vclock.DRAM), cfg)
	// Parallel speed-up is not measured here: below 8 cores it is noise.
	db.DefaultParallelism = 1
	if design == designHybrid {
		for _, ddl := range hybridDDL {
			if _, err := db.Exec(ddl); err != nil {
				return nil, fmt.Errorf("design %s: %s: %w", design, ddl, err)
			}
		}
	}
	db.Store().Prewarm()
	return db, nil
}

// stmtKind classes a statement for the latency metrics.
type stmtKind uint8

const (
	kindRead  stmtKind = iota // point or short SELECT, or a result_wire query
	kindWrite                 // INSERT, UPDATE or DELETE
	kindQuery                 // analytic SELECT
)

// stmt is one statement of a generated stream. The engine sees only sql.
type stmt struct {
	sql  string
	kind stmtKind
	// tmpl names the statement's template ("Q03", "OrderStatus#1"):
	// per-template medians feed query_geomean_ms.
	tmpl string
	// unit is the transaction, pass or round the statement belongs to.
	unit int
	// ordered results (ORDER BY) are digested in order.
	ordered bool
	// Writes: rows affected must equal maxRows, or be at most maxRows
	// when the statement has a TOP clause.
	maxRows int64
	top     bool
}

func newStmt(sqlText, tmpl string, unit int, analytic bool) stmt {
	st := stmt{sql: sqlText, tmpl: tmpl, unit: unit}
	switch {
	case strings.HasPrefix(sqlText, "SELECT"):
		st.kind = kindRead
		if analytic {
			st.kind = kindQuery
		}
		st.ordered = strings.Contains(sqlText, " ORDER BY ")
	default:
		st.kind = kindWrite
		st.maxRows = 1
		if i := strings.Index(sqlText, " TOP "); i >= 0 {
			st.top = true
			num := strings.TrimLeft(sqlText[i+5:], "( ")
			end := strings.IndexFunc(num, func(r rune) bool { return r < '0' || r > '9' })
			n, err := strconv.ParseInt(num[:end], 10, 64)
			if err != nil {
				panic("benchmark: unreadable TOP clause in " + sqlText)
			}
			st.maxRows = n
		}
	}
	return st
}

// sortQueries are the benchmark's own ORDER BY / TOP-N queries; the 22
// CH queries have one trivial sort between them, and ROADMAP 2b needs a
// workload on which sorting costs something. Every ORDER BY ends in the
// full key so the row order is total.
var sortQueries = []string{
	`SELECT TOP 100 ol_w_id, ol_d_id, ol_o_id, ol_number, ol_amount FROM orderline WHERE ol_quantity > 5 ORDER BY ol_amount DESC, ol_w_id, ol_d_id, ol_o_id, ol_number`,
	`SELECT o_w_id, o_d_id, o_id, o_entry_d, o_ol_cnt FROM oorder WHERE o_carrier_id = 3 ORDER BY o_entry_d DESC, o_ol_cnt DESC, o_w_id, o_d_id, o_id`,
	`SELECT TOP 50 ol_w_id, ol_d_id, ol_o_id, ol_number, ol_quantity, ol_amount FROM orderline WHERE ol_delivery_d > '2007-09-01' ORDER BY ol_quantity DESC, ol_amount, ol_w_id, ol_d_id, ol_o_id, ol_number`,
}

// analyticQueries is CH Q1..Q22 followed by the three sort queries as
// Q23..Q25.
func analyticQueries() []string {
	return append(workload.CHQueries(), sortQueries...)
}

func queryName(i int) string { return fmt.Sprintf("Q%02d", i+1) }

// analyticStream is passes over the 25 queries, shuffled per pass.
func analyticStream(seed int64, passes int) []stmt {
	rng := rand.New(rand.NewSource(seed*7919 + 1))
	queries := analyticQueries()
	var out []stmt
	for p := 0; p < passes; p++ {
		for _, qi := range rng.Perm(len(queries)) {
			out = append(out, newStmt(queries[qi], queryName(qi), p, true))
		}
	}
	return out
}

// txnDeck deals transaction types in exact proportions: a block holds
// each type count times and is dealt in an order shuffled from the
// seed, then the next block. Drawing by probability instead would let
// the seed decide how many statements of each kind a run has, and with
// that every per-statement metric.
type txnDeck struct {
	block []workload.CHTxn
	rng   *rand.Rand
	hand  []workload.CHTxn
}

func newTxnDeck(rng *rand.Rand, names []string, counts []int) *txnDeck {
	byName := map[string]workload.CHTxn{}
	for _, t := range workload.CHTransactions() {
		byName[t.Name] = t
	}
	d := &txnDeck{rng: rng}
	for i, n := range names {
		t, ok := byName[n]
		if !ok {
			panic("benchmark: workload.CHTransactions has no " + n)
		}
		for c := 0; c < counts[i]; c++ {
			d.block = append(d.block, t)
		}
	}
	return d
}

func (d *txnDeck) deal() workload.CHTxn {
	if len(d.hand) == 0 {
		d.hand = append(d.hand, d.block...)
		d.rng.Shuffle(len(d.hand), func(i, j int) { d.hand[i], d.hand[j] = d.hand[j], d.hand[i] })
	}
	t := d.hand[len(d.hand)-1]
	d.hand = d.hand[:len(d.hand)-1]
	return t
}

// oltpDeck is the oltp_wire mix, NewOrder 30 / Payment 30 / OrderStatus
// 20 / StockLevel 15 / Delivery 5 in blocks of 20: read-heavier than
// TPC-C so that the read and the write class both have enough samples
// for a p95.
func oltpDeck(rng *rand.Rand) *txnDeck {
	return newTxnDeck(rng,
		[]string{"NewOrder", "Payment", "OrderStatus", "StockLevel", "Delivery"},
		[]int{6, 6, 4, 3, 1})
}

// updatedOnce holds the stock rows and customers a hybrid-design stream
// has updated, so that none is updated a second time.
//
// At the seed commit a nonclustered columnstore answers wrongly after
// one row is updated twice between two compactions: both new versions
// sit in the delta store, compaction sorts the rowgroup they move into
// for compression, and the two buffered deletes then cancel the old row
// and whichever version sorted first, which can be the newer one (the
// README has a ten-line reproduction, TestColumnstoreShowsStaleRow runs
// it). With the tuple mover running, whether a query meets such a row
// depends on timing, so a stream with repeated updates fails its answer
// check in about one run in ten. A benchmark has to run on a workload on
// which no operation fails, so until the engine is fixed the streams
// that write to the hybrid design draw their transactions again when one
// would update a row a second time. Keys are drawn uniformly and a run
// updates a seventh of the stock rows, so about one NewOrder in three is
// drawn again, with other rows of the same kind. With the filter the
// gated metrics are within 3 % of what they are without it, but the
// median write is a fifth cheaper: the README has the table. Delete the
// filter, in a change of its own that measures the baseline again, when
// that test begins to fail.
type updatedOnce map[string]bool

// maxRedraws is how often one transaction is drawn again before the
// stream gives up: a draw fails with a probability well below one half
// until most rows have been updated, so this many failures in a row mean
// the run is too long for the data.
const maxRedraws = 1000

// admits reports whether none of the transaction's statements updates a
// row already updated, and if so records the rows it updates.
func (u updatedOnce) admits(stmts []string) bool {
	var keys []string
	for _, s := range stmts {
		if !strings.HasPrefix(s, "UPDATE stock ") && !strings.HasPrefix(s, "UPDATE ch_customer ") {
			continue
		}
		key := s[strings.Index(s, " WHERE "):]
		if u[key] || slices.Contains(keys, key) {
			return false
		}
		keys = append(keys, key)
	}
	for _, k := range keys {
		u[k] = true
	}
	return true
}

// appendTxn appends one transaction's statements as unit. With a non-nil
// once the transaction is drawn again until it updates no row twice.
func appendTxn(out []stmt, t workload.CHTxn, rng *rand.Rand, cfg workload.CHConfig, unit int, once updatedOnce) ([]stmt, error) {
	stmts := t.Gen(rng, cfg)
	for tries := 0; once != nil && !once.admits(stmts); tries++ {
		if tries == maxRedraws {
			return nil, fmt.Errorf("transaction %d (%s): %d draws in a row update a row the run has already updated; the run is too long for the data", unit, t.Name, maxRedraws)
		}
		stmts = t.Gen(rng, cfg)
	}
	for i, s := range stmts {
		out = append(out, newStmt(s, t.Name+"#"+strconv.Itoa(i), unit, false))
	}
	return out, nil
}

// txnStream is n transactions dealt from the oltp_wire mix: the
// oltp_wire stream, and the untimed warm-up of both txn workloads.
func txnStream(rngSeed int64, cfg workload.CHConfig, n int, once updatedOnce) ([]stmt, error) {
	rng := rand.New(rand.NewSource(rngSeed))
	deck := oltpDeck(rng)
	var out []stmt
	var err error
	for i := 0; i < n; i++ {
		if out, err = appendTxn(out, deck.deal(), rng, cfg, i, once); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func oltpStream(seed int64, cfg workload.CHConfig, txns int) ([]stmt, error) {
	return txnStream(seed*7919+2, cfg, txns, nil)
}

func warmTxnStream(seed int64, cfg workload.CHConfig, txns int, once updatedOnce) ([]stmt, error) {
	return txnStream(seed*7919+4, cfg, txns, once)
}

// htapQueryOrder is the round-robin of analytic queries in htap_mixed
// (CH numbers): the scans and aggregates over the tables the writes
// touch, none of the multi-second joins.
var htapQueryOrder = []int{1, 6, 19, 21, 2, 11, 4, 12, 13, 8, 22}

// htapStream is rounds of 10 write transactions (NewOrder 5, Payment 3,
// Delivery 2, order shuffled), then 2 OrderStatus and 2 StockLevel, then
// one analytic query. Two of each read transaction, not one: a run has
// some 40 rounds, and read_p95_ms needs ten samples beyond it.
func htapStream(seed int64, cfg workload.CHConfig, rounds int, once updatedOnce) ([]stmt, error) {
	rng := rand.New(rand.NewSource(seed*7919 + 3))
	writes := newTxnDeck(rng, []string{"NewOrder", "Payment", "Delivery"}, []int{5, 3, 2})
	reads := newTxnDeck(rng, []string{"OrderStatus", "StockLevel"}, []int{2, 2})
	queries := workload.CHQueries()
	var out []stmt
	var err error
	txn := 0 // every transaction and every analytic query is a unit
	for r := 0; r < rounds; r++ {
		for i := 0; i < len(writes.block)+len(reads.block); i++ {
			deck := writes
			if i >= len(writes.block) {
				deck = reads
			}
			if out, err = appendTxn(out, deck.deal(), rng, cfg, txn, once); err != nil {
				return nil, err
			}
			txn++
		}
		q := htapQueryOrder[r%len(htapQueryOrder)] - 1
		out = append(out, newStmt(queries[q], queryName(q), txn, true))
		txn++
	}
	return out, nil
}

// resultQuery is one of result_wire's three large-result queries; the
// placeholder is the warehouse.
type resultQuery struct {
	tmpl string
	sql  string // with one ? placeholder
}

var resultQueries = []resultQuery{
	{"R.orderline", "SELECT ol_o_id, ol_i_id, ol_quantity, ol_amount, ol_delivery_d FROM orderline WHERE ol_w_id = ?"},
	{"R.customer", "SELECT c_id, c_last, c_credit, c_balance FROM ch_customer WHERE c_w_id = ?"},
	{"R.stock", "SELECT s_i_id, s_quantity FROM stock WHERE s_w_id = ?"},
}

// resultCall is one query of one result_wire client.
type resultCall struct {
	query     int // index into resultQueries
	warehouse int
}

// literal is the text the driver sends after client-side interpolation,
// which is what the twin replays.
func (c resultCall) literal() string {
	return strings.Replace(resultQueries[c.query].sql, "?", strconv.Itoa(c.warehouse), 1)
}

// resultStream is one client's calls: the three queries round-robin,
// warehouses drawn from the seed.
func resultStream(seed int64, cfg workload.CHConfig, client, n int) []resultCall {
	rng := rand.New(rand.NewSource(seed*7919 + 10 + int64(client)))
	out := make([]resultCall, n)
	for i := range out {
		out[i] = resultCall{query: (i + client) % len(resultQueries), warehouse: rng.Intn(cfg.Warehouses)}
	}
	return out
}
