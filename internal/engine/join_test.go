package engine

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"hybriddb/internal/exec"
	"hybriddb/internal/metrics"
	"hybriddb/internal/plan"
	"hybriddb/internal/value"
	"hybriddb/internal/vclock"
)

// TestCompositeKeyJoin checks joins on one, two and three key pairs
// against nested loops in Go over the generated rows, on the B+-only,
// CCI and NCCI designs at Parallelism 1 and 8. The keys are BIGINT,
// DATE, VARCHAR and BIGINT = DOUBLE (never the first pair), every key
// column holds NULLs and few distinct values, and a three-table join
// attaches its last table on two pairs that meet two different tables
// of the tree. The plans run must include hash joins building from
// B+ rows and from columnstore batches, merge joins and nested-loop
// joins, each on two or more pairs, and a partitioned build.
func TestCompositeKeyJoin(t *testing.T) {
	exec.SetSchedulableCPUs(8)
	defer exec.SetSchedulableCPUs(0)

	rng := rand.New(rand.NewSource(30))
	maybeNull := func(v value.Value) value.Value {
		if rng.Intn(10) == 0 {
			return value.Null
		}
		return v
	}
	// Columns: id, a BIGINT, d DATE, s VARCHAR, then x BIGINT (l) or
	// xf DOUBLE (r); m has only the first four.
	gen := func(n int, last func() value.Value) []value.Row {
		rows := make([]value.Row, n)
		for i := range rows {
			rows[i] = value.Row{value.NewInt(int64(i)),
				maybeNull(value.NewInt(int64(rng.Intn(5)))),
				maybeNull(value.NewDate(int64(14000 + rng.Intn(4)))),
				maybeNull(value.NewString(string(rune('p' + rng.Intn(3))))),
			}
			if last != nil {
				rows[i] = append(rows[i], last())
			}
		}
		return rows
	}
	lRows := gen(200, func() value.Value { return maybeNull(value.NewInt(int64(rng.Intn(3)))) })
	rRows := gen(1000, func() value.Value {
		f := float64(rng.Intn(3))
		if f == 0 && rng.Intn(2) == 0 {
			f = math.Copysign(0, -1)
		}
		return maybeNull(value.NewFloat(f))
	})
	mRows := gen(120, nil)

	eq := func(a, b value.Value) bool {
		switch {
		case a.IsNull() || b.IsNull():
			return false
		case a.Kind() == value.KindString:
			return a.Str() == b.Str()
		}
		return a.Float() == b.Float()
	}
	const (
		l, r, m = 0, 1, 2 // tables
		id      = 0       // columns; x is r.xf
		a       = 1
		d       = 2
		s       = 3
		x       = 4
	)
	data := [][]value.Row{lRows, rRows, mRows}
	colName := func(t, c int) string {
		name := []string{"id", "a", "d", "s", "x"}[c]
		if t == r && c == x {
			name = "xf"
		}
		return []string{"l", "r", "m"}[t] + "." + name
	}
	type key struct{ t, c int }
	eqs := func(t1, c1, t2, c2 int) [2]key { return [2]key{{t1, c1}, {t2, c2}} }
	queries := []struct {
		tabs  []int
		pairs [][2]key
		sel   bool // tabs[0].id < 8
	}{
		{[]int{l, r}, [][2]key{eqs(l, a, r, a)}, false},
		{[]int{l, r}, [][2]key{eqs(l, d, r, d)}, false},
		{[]int{l, r}, [][2]key{eqs(l, s, r, s)}, false},
		{[]int{l, r}, [][2]key{eqs(l, a, r, a), eqs(l, s, r, s)}, false},
		{[]int{l, r}, [][2]key{eqs(l, a, r, a), eqs(l, x, r, x)}, false},
		{[]int{l, r}, [][2]key{eqs(l, d, r, d), eqs(l, s, r, s)}, false},
		{[]int{l, r}, [][2]key{eqs(l, a, r, a), eqs(l, d, r, d), eqs(l, s, r, s)}, false},
		{[]int{l, r}, [][2]key{eqs(l, d, r, d), eqs(l, s, r, s), eqs(r, x, l, x)}, false},
		{[]int{l, r}, [][2]key{eqs(l, a, r, a), eqs(l, d, r, d)}, true},
		{[]int{l, r}, [][2]key{eqs(l, a, r, a), eqs(l, s, r, s), eqs(l, x, r, x)}, true},
		{[]int{l, r}, [][2]key{eqs(l, id, r, id), eqs(l, a, r, a)}, true},
		{[]int{l, r}, [][2]key{eqs(l, id, r, id), eqs(l, s, r, s), eqs(l, x, r, x)}, true},
		{[]int{l, m}, [][2]key{eqs(l, a, m, a), eqs(l, d, m, d)}, false},
		{[]int{l, m}, [][2]key{eqs(m, a, l, a), eqs(m, s, l, s), eqs(m, d, l, d)}, false},
		{[]int{l, r, m}, [][2]key{eqs(l, a, r, a), eqs(m, d, l, d), eqs(m, s, r, s)}, false},
	}
	// oracle joins by nested loops, a pair checked as soon as both its
	// tables have a row, and returns the sorted id tuples.
	oracle := func(tabs []int, pairs [][2]key, sel bool) []string {
		var out []string
		cur := make([]value.Row, 3)
		var walk func(k int)
		walk = func(k int) {
			if k == len(tabs) {
				ids := make([]string, k)
				for i, t := range tabs {
					ids[i] = cur[t][id].String()
				}
				out = append(out, strings.Join(ids, ","))
				return
			}
			t := tabs[k]
		rows:
			for _, row := range data[t] {
				if k == 0 && sel && row[id].Int() >= 8 {
					continue
				}
				cur[t] = row
				for _, p := range pairs {
					if (p[0].t == t || p[1].t == t) && cur[p[0].t] != nil && cur[p[1].t] != nil &&
						!eq(cur[p[0].t][p[0].c], cur[p[1].t][p[1].c]) {
						continue rows
					}
				}
				walk(k + 1)
			}
			cur[t] = nil
		}
		walk(0)
		slices.Sort(out)
		return out
	}

	designs := []struct {
		name string
		ddl  []string
	}{
		// l and m clustered on a merge on it. r is clustered on id, so
		// l ⋈ r on a hashes, building from l's B+ rows, and l.id < 8
		// feeds nested loops into r's seek on id.
		{"btree", []string{"CREATE CLUSTERED INDEX cl ON l (a)", "CREATE CLUSTERED INDEX cr ON r (id)", "CREATE CLUSTERED INDEX cm ON m (a)"}},
		{"cci", []string{"CREATE CLUSTERED COLUMNSTORE INDEX ccl ON l", "CREATE CLUSTERED COLUMNSTORE INDEX ccr ON r", "CREATE CLUSTERED COLUMNSTORE INDEX ccm ON m"}},
		{"ncci", []string{"CREATE CLUSTERED INDEX cl ON l (a)", "CREATE CLUSTERED INDEX cr ON r (id)", "CREATE CLUSTERED INDEX cm ON m (a)",
			"CREATE NONCLUSTERED COLUMNSTORE INDEX csl ON l", "CREATE NONCLUSTERED COLUMNSTORE INDEX csr ON r", "CREATE NONCLUSTERED COLUMNSTORE INDEX csm ON m"}},
	}
	seen := map[string]bool{}
	parts0 := metrics.Default().Value("hybriddb_exec_build_partitions_total")
	for _, dz := range designs {
		// Every plan goes parallel, so hash joins are Parallel-marked and
		// build partitioned at Parallelism 8.
		model := vclock.DefaultModel(vclock.DRAM)
		model.ParallelCostThreshold = 0
		db := New(model, 0)
		db.DefaultRowGroupSize = 64
		mustExec(t, db, "CREATE TABLE l (id BIGINT, a BIGINT, d DATE, s VARCHAR(4), x BIGINT)")
		mustExec(t, db, "CREATE TABLE r (id BIGINT, a BIGINT, d DATE, s VARCHAR(4), xf DOUBLE)")
		mustExec(t, db, "CREATE TABLE m (id BIGINT, a BIGINT, d DATE, s VARCHAR(4))")
		db.Table("l").BulkLoad(nil, lRows)
		db.Table("r").BulkLoad(nil, rRows)
		db.Table("m").BulkLoad(nil, mRows)
		for _, q := range dz.ddl {
			mustExec(t, db, q)
		}
		for _, q := range queries {
			var sel, from, where []string
			for _, t := range q.tabs {
				sel = append(sel, colName(t, id))
				from = append(from, []string{"l", "r", "m"}[t])
			}
			if q.sel {
				where = append(where, colName(q.tabs[0], id)+" < 8")
			}
			for _, p := range q.pairs {
				where = append(where, colName(p[0].t, p[0].c)+" = "+colName(p[1].t, p[1].c))
			}
			sqlText := "SELECT " + strings.Join(sel, ", ") + " FROM " + strings.Join(from, ", ") +
				" WHERE " + strings.Join(where, " AND ")
			want := oracle(q.tabs, q.pairs, q.sel)
			for _, dop := range []int{1, 8} {
				res := mustExec(t, db, sqlText, ExecOptions{Parallelism: dop})
				got := make([]string, len(res.Rows))
				for i, row := range res.Rows {
					parts := make([]string, len(row))
					for j, v := range row {
						parts[j] = v.String()
					}
					got[i] = strings.Join(parts, ",")
				}
				slices.Sort(got)
				if !slices.Equal(got, want) {
					t.Errorf("%s dop %d: %s: %d rows, oracle %d", dz.name, dop, sqlText, len(got), len(want))
				}
				plan.Walk(res.Plan, func(n plan.Node) {
					j, ok := n.(*plan.Join)
					if !ok || len(j.Keys) < 2 {
						return
					}
					kind := j.Strategy.String()
					if sc, ok := j.Outer.(*plan.Scan); ok && j.Strategy == plan.JoinHash {
						kind += map[bool]string{true: " columnar build", false: " row build"}[sc.Access == plan.AccessCSIScan]
					}
					seen[kind] = true
				})
			}
		}
	}
	for _, kind := range []string{"HashJoin row build", "HashJoin columnar build", "MergeJoin", "NestedLoopJoin"} {
		if !seen[kind] {
			t.Errorf("no %s on two or more key pairs ran (saw %v)", kind, seen)
		}
	}
	if metrics.Default().Value("hybriddb_exec_build_partitions_total") == parts0 {
		t.Error("no hash join built partitioned")
	}
}
