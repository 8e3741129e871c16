// Driver round-trip differential test and concurrent-session stress:
// the database/sql path over a real socket must return exactly the
// rows the in-process engine returns, for every CH analytic query, and
// the server must survive -race stress of connects/disconnects
// interleaved with DML while the tuple mover runs.
package hybridsql

import (
	"context"
	"database/sql"
	"database/sql/driver"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"hybriddb/internal/engine"
	"hybriddb/internal/metrics"
	"hybriddb/internal/value"
	"hybriddb/internal/vclock"
	"hybriddb/internal/wire"
	"hybriddb/internal/workload"
)

// startServer serves db on an ephemeral port and returns its address.
func startServer(t *testing.T, db *engine.Database, opts wire.Options) string {
	t.Helper()
	srv := wire.NewServer(db, opts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return ln.Addr().String()
}

// canonValue renders one driver-surface value the same way for both
// paths (floats at fixed precision so formatting can't differ).
func canonValue(v any) string {
	switch x := v.(type) {
	case nil:
		return "NULL"
	case float64:
		return fmt.Sprintf("%.6f", x)
	case time.Time:
		return x.UTC().Format("2006-01-02")
	default:
		return fmt.Sprintf("%v", x)
	}
}

// engineValueToDriver converts an engine result value via the same
// mapping the driver uses, so both sides canonicalize identically.
func engineValueToDriver(v value.Value) any { return toDriverValue(v) }

func TestDriverCHDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("CH build is slow")
	}
	cfg := workload.DefaultCH()
	cfg.Warehouses = 2
	cfg.CustomersPerD = 60
	cfg.OrdersPerD = 80
	cfg.ItemCount = 400
	cfg.RowGroupSize = 1024
	edb := workload.BuildCH(vclock.DefaultModel(vclock.DRAM), cfg)
	for _, tbl := range []string{"orderline", "oorder", "stock", "ch_item", "ch_customer", "ch_supplier"} {
		if _, err := edb.Exec("CREATE NONCLUSTERED COLUMNSTORE INDEX csi_" + tbl + " ON " + tbl); err != nil {
			t.Fatal(err)
		}
	}
	addr := startServer(t, edb, wire.Options{})

	sdb, err := sql.Open("hybrid", "hybrid://tester@"+addr)
	if err != nil {
		t.Fatalf("sql.Open: %v", err)
	}
	defer sdb.Close()
	if err := sdb.Ping(); err != nil {
		t.Fatalf("Ping: %v", err)
	}

	for qi, q := range workload.CHQueries() {
		// In-process reference.
		ref, err := edb.Exec(q)
		if err != nil {
			t.Fatalf("Q%02d in-process: %v", qi+1, err)
		}
		// database/sql over the wire.
		rows, err := sdb.Query(q)
		if err != nil {
			t.Fatalf("Q%02d driver: %v", qi+1, err)
		}
		cols, err := rows.Columns()
		if err != nil {
			t.Fatalf("Q%02d columns: %v", qi+1, err)
		}
		if len(cols) != len(ref.Columns) {
			t.Fatalf("Q%02d: driver %d columns, engine %d", qi+1, len(cols), len(ref.Columns))
		}
		for ci := range cols {
			if cols[ci] != ref.Columns[ci] {
				t.Fatalf("Q%02d col %d: driver %q, engine %q", qi+1, ci, cols[ci], ref.Columns[ci])
			}
		}
		var got [][]string
		vals := make([]any, len(cols))
		ptrs := make([]any, len(cols))
		for i := range vals {
			ptrs[i] = &vals[i]
		}
		for rows.Next() {
			if err := rows.Scan(ptrs...); err != nil {
				t.Fatalf("Q%02d scan: %v", qi+1, err)
			}
			row := make([]string, len(vals))
			for i, v := range vals {
				row[i] = canonValue(v)
			}
			got = append(got, row)
		}
		if err := rows.Err(); err != nil {
			t.Fatalf("Q%02d rows: %v", qi+1, err)
		}
		rows.Close()

		if len(got) != len(ref.Rows) {
			t.Fatalf("Q%02d: driver %d rows, engine %d rows", qi+1, len(got), len(ref.Rows))
		}
		for ri := range ref.Rows {
			for ci := range ref.Rows[ri] {
				want := canonValue(engineValueToDriver(ref.Rows[ri][ci]))
				if got[ri][ci] != want {
					t.Fatalf("Q%02d row %d col %d: driver %q, engine %q", qi+1, ri, ci, got[ri][ci], want)
				}
			}
		}
	}
}

func TestDriverPlaceholdersAndTypes(t *testing.T) {
	edb := engine.New(vclock.DefaultModel(vclock.DRAM), 0)
	addr := startServer(t, edb, wire.Options{})
	sdb, err := sql.Open("hybrid", addr) // bare host:port DSN form
	if err != nil {
		t.Fatalf("sql.Open: %v", err)
	}
	defer sdb.Close()

	mustExec := func(q string, args ...any) sql.Result {
		t.Helper()
		r, err := sdb.Exec(q, args...)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		return r
	}
	mustExec(`CREATE TABLE typ (id BIGINT, f DOUBLE, s VARCHAR, b BOOLEAN, d DATE, PRIMARY KEY (id))`)
	day := time.Date(2022, 3, 14, 0, 0, 0, 0, time.UTC)
	res := mustExec(`INSERT INTO typ VALUES (?, ?, ?, ?, ?)`, int64(1), 2.5, "it''s ok?", true, day)
	if n, _ := res.RowsAffected(); n != 1 {
		t.Fatalf("rows affected = %d", n)
	}
	mustExec(`INSERT INTO typ VALUES (?, ?, ?, ?, ?)`, int64(2), -0.25, "plain", false, day.AddDate(0, 0, 7))

	var (
		id int64
		f  float64
		s  string
		b  bool
		d  time.Time
	)
	row := sdb.QueryRow(`SELECT id, f, s, b, d FROM typ WHERE id = ?`, int64(1))
	if err := row.Scan(&id, &f, &s, &b, &d); err != nil {
		t.Fatalf("scan: %v", err)
	}
	if id != 1 || f != 2.5 || s != "it''s ok?" || !b || !d.Equal(day) {
		t.Fatalf("round trip = %d %v %q %v %v", id, f, s, b, d)
	}

	// Reused prepared statement (no placeholders → server-side prepare).
	st, err := sdb.Prepare(`SELECT count(*) FROM typ`)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	defer st.Close()
	for i := 0; i < 3; i++ {
		var n int64
		if err := st.QueryRow().Scan(&n); err != nil {
			t.Fatalf("prepared scan: %v", err)
		}
		if n != 2 {
			t.Fatalf("count = %d", n)
		}
	}

	// NULL round trip.
	mustExec(`INSERT INTO typ VALUES (?, ?, ?, ?, ?)`, int64(3), nil, nil, nil, nil)
	var ns any
	if err := sdb.QueryRow(`SELECT s FROM typ WHERE id = 3`).Scan(&ns); err != nil {
		t.Fatalf("null scan: %v", err)
	}
	if ns != nil {
		t.Fatalf("null column = %v", ns)
	}

	// Statement error surfaces as an error, not a dead connection.
	if _, err := sdb.Exec(`SELECT broken FROM nowhere`); err == nil {
		t.Fatalf("bad statement did not error")
	}
	var n int64
	if err := sdb.QueryRow(`SELECT count(*) FROM typ`).Scan(&n); err != nil || n != 3 {
		t.Fatalf("post-error query: n=%d err=%v", n, err)
	}
}

func TestParseDSN(t *testing.T) {
	cases := []struct {
		in   string
		want Config
		err  bool
	}{
		{in: "hybrid://u:tok@h:1?parallelism=4", want: Config{Addr: "h:1", User: "u", Token: "tok", Params: map[string]string{"parallelism": "4"}}},
		{in: "hybrid://h:1", want: Config{Addr: "h:1", Params: map[string]string{}}},
		{in: "127.0.0.1:4810", want: Config{Addr: "127.0.0.1:4810", Params: map[string]string{}}},
		{in: "", err: true},
		{in: "postgres://h:1", err: true},
		{in: "hybrid://", err: true},
	}
	for _, c := range cases {
		got, err := ParseDSN(c.in)
		if c.err {
			if err == nil {
				t.Errorf("ParseDSN(%q): no error", c.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseDSN(%q): %v", c.in, err)
			continue
		}
		if got.Addr != c.want.Addr || got.User != c.want.User || got.Token != c.want.Token {
			t.Errorf("ParseDSN(%q) = %+v, want %+v", c.in, got, c.want)
		}
		for k, v := range c.want.Params {
			if got.Params[k] != v {
				t.Errorf("ParseDSN(%q) param %s = %q, want %q", c.in, k, got.Params[k], v)
			}
		}
	}
}

func TestInterpolate(t *testing.T) {
	q, err := interpolate(`SELECT '?', a FROM t WHERE b = ? AND c = ?`, []driver.Value{int64(1), "x'y"})
	if err != nil {
		t.Fatalf("interpolate: %v", err)
	}
	want := `SELECT '?', a FROM t WHERE b = 1 AND c = 'x''y'`
	if q != want {
		t.Fatalf("interpolate = %q, want %q", q, want)
	}
	if _, err := interpolate(`SELECT ?`, nil); err == nil {
		t.Fatalf("missing args did not error")
	}
	if _, err := interpolate(`SELECT 1`, []driver.Value{int64(1)}); err == nil {
		t.Fatalf("extra args did not error")
	}
	if n := countPlaceholders(`SELECT '?' FROM t WHERE a = ? AND s = 'it''s ?' AND b = ?`); n != 2 {
		t.Fatalf("countPlaceholders = %d, want 2", n)
	}
}

// sameRows reports whether two results hold the same values in the
// same order.
func sameRows(a, b []value.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) || value.CompareRows(a[i], b[i], nil) != 0 {
			return false
		}
	}
	return true
}

// TestConcurrentSessionsStress races connects/disconnects against DML
// and reads with the tuple mover running and admission bounded. Run
// under -race (make ci does). Every statement must succeed and every
// read must observe a consistent (monotonic) insert count. A second
// phase overloads admission with read-only clients and checks every
// wire result against the in-process answer.
func TestConcurrentSessionsStress(t *testing.T) {
	edb := engine.New(vclock.DefaultModel(vclock.DRAM), 0)
	// r is the overload phase's read-only table, loaded before the
	// mover and the server exist: 64 groups, and a detail query wide
	// enough (5000 rows) that its result pages over several fetches.
	if _, err := edb.Exec(`CREATE TABLE r (k BIGINT, g BIGINT, v BIGINT)`); err != nil {
		t.Fatal(err)
	}
	rrows := make([]value.Row, 20_000)
	for i := range rrows {
		rrows[i] = value.Row{value.NewInt(int64(i)), value.NewInt(int64(i % 64)), value.NewInt(int64(i * 7 % 10_000))}
	}
	edb.Table("r").BulkLoad(nil, rrows)
	if _, err := edb.Exec(`CREATE CLUSTERED COLUMNSTORE INDEX cci_r ON r (k)`); err != nil {
		t.Fatal(err)
	}
	if _, err := edb.Exec(`CREATE TABLE s (id BIGINT, w BIGINT, v BIGINT, PRIMARY KEY (id))`); err != nil {
		t.Fatal(err)
	}
	if _, err := edb.Exec(`CREATE NONCLUSTERED COLUMNSTORE INDEX csi_s ON s`); err != nil {
		t.Fatal(err)
	}
	edb.EnableTupleMover(engine.MoverOptions{})
	defer edb.DisableTupleMover()
	addr := startServer(t, edb, wire.Options{AdmissionLimit: 4})

	const workers = 12
	const itersPerWorker = 30
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < itersPerWorker; i++ {
				// Fresh connection per iteration: the churn is the point.
				c, err := Dial(fmt.Sprintf("hybrid://w%d@%s", w, addr))
				if err != nil {
					errc <- fmt.Errorf("w%d dial: %w", w, err)
					return
				}
				id := int64(w)*1_000_000 + int64(i)
				stmts := []string{
					fmt.Sprintf(`INSERT INTO s VALUES (%d, %d, %d)`, id, w, rng.Intn(1000)),
					fmt.Sprintf(`SELECT count(*), sum(v) FROM s WHERE w = %d`, w),
				}
				if i%7 == 3 {
					stmts = append(stmts, fmt.Sprintf(`UPDATE s SET v = v + 1 WHERE id = %d`, id))
				}
				if i%11 == 5 {
					stmts = append(stmts, fmt.Sprintf(`DELETE FROM s WHERE id = %d AND w = %d`, id, w))
				}
				for _, q := range stmts {
					if _, _, err := c.Exec(q); err != nil {
						errc <- fmt.Errorf("w%d %q: %w", w, q, err)
						c.Close()
						return
					}
				}
				// Half the connections quit cleanly, half just drop.
				if i%2 == 0 {
					c.Close()
				} else {
					c.nc.Close()
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if t.Failed() {
		return
	}
	// Consistency: per-worker count must equal inserts minus deletes.
	for w := 0; w < workers; w++ {
		deletes := 0
		for i := 0; i < itersPerWorker; i++ {
			if i%11 == 5 {
				deletes++
			}
		}
		res, err := edb.Exec(fmt.Sprintf(`SELECT count(*) FROM s WHERE w = %d`, w))
		if err != nil {
			t.Fatalf("final count w%d: %v", w, err)
		}
		got := res.Rows[0][0].Int()
		want := int64(itersPerWorker - deletes)
		if got != want {
			t.Errorf("w%d rows = %d, want %d", w, got, want)
		}
	}
	// All wire sessions are gone; only the engine's local session stays.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := len(edb.Sessions()); n == 1 {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("sessions after stress = %d (%v), want 1", n, edb.Sessions())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Overload: 64 read-only clients, each its own connection, on the
	// 4 admission slots. No error, every result equal to the in-process
	// reference (a row dropped, duplicated or reordered anywhere in the
	// concurrent fetch path shows here), and admission must have queued.
	queries := []string{
		`SELECT g, count(*), sum(v), min(k), max(k) FROM r GROUP BY g`,
		`SELECT k, v FROM r WHERE g < 16`,
	}
	refs := make([][]value.Row, len(queries))
	for i, q := range queries {
		res, err := edb.Exec(q)
		if err != nil {
			t.Fatalf("reference %q: %v", q, err)
		}
		refs[i] = res.Rows
	}
	if len(refs[1]) <= fetchBatch {
		t.Fatalf("detail result has %d rows; it must exceed one fetch page (%d)", len(refs[1]), fetchBatch)
	}
	const clients, itersPerClient = 64, 6
	waits0 := metrics.Default().Value("engine_admission_waits_total")
	errc = make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cli, err := Dial(fmt.Sprintf("hybrid://load%02d@%s", c, addr))
			if err != nil {
				errc <- fmt.Errorf("load%02d dial: %w", c, err)
				return
			}
			defer cli.Close()
			for i := 0; i < itersPerClient; i++ {
				qi := (c + i) % len(queries)
				_, rows, err := cli.Exec(queries[qi])
				if err != nil {
					errc <- fmt.Errorf("load%02d %q: %w", c, queries[qi], err)
					return
				}
				if !sameRows(rows, refs[qi]) {
					errc <- fmt.Errorf("load%02d %q: %d rows differ from the in-process result (%d rows)",
						c, queries[qi], len(rows), len(refs[qi]))
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if waits := metrics.Default().Value("engine_admission_waits_total") - waits0; waits <= 0 {
		t.Errorf("engine_admission_waits_total moved by %v with %d clients on 4 slots — is the admission limit applied?", waits, clients)
	}
}

// TestSessionsVisibleOverWire checks the \sessions surface end to end.
func TestSessionsVisibleOverWire(t *testing.T) {
	edb := engine.New(vclock.DefaultModel(vclock.DRAM), 0)
	addr := startServer(t, edb, wire.Options{})
	a, err := Dial("hybrid://alice@" + addr)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if a.SessionID() <= 1 {
		t.Fatalf("session id = %d, want > 1 (1 is the local session)", a.SessionID())
	}
	rows, err := a.Sessions()
	if err != nil {
		t.Fatalf("Sessions: %v", err)
	}
	if len(rows) != 2 {
		t.Fatalf("sessions = %+v", rows)
	}
	var seenAlice bool
	for _, r := range rows {
		if r.User == "alice" && r.ID == a.SessionID() {
			seenAlice = true
			if r.State != "active" && r.State != "idle" {
				t.Fatalf("alice state = %q", r.State)
			}
		}
	}
	if !seenAlice {
		t.Fatalf("alice missing from %+v", rows)
	}
}
