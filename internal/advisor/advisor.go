package advisor

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"hybriddb/internal/engine"
	"hybriddb/internal/metrics"
	"hybriddb/internal/optimizer"
	"hybriddb/internal/sql"
	"hybriddb/internal/table"
	"hybriddb/internal/vclock"
)

// Process-wide advisor counters.
var (
	mWhatIf     = metrics.NewCounter("hybriddb_advisor_whatif_calls_total", "what-if workload cost evaluations")
	mCandidates = metrics.NewCounter("hybriddb_advisor_candidates_total", "index candidates enumerated (post-merge)")
)

// Statement is one workload entry with a weight (frequency).
type Statement struct {
	SQL    string
	Weight float64
}

// Workload is a weighted set of statements.
type Workload []Statement

// Options configure a tuning session.
type Options struct {
	// StorageBudget caps the total estimated size of recommended
	// indexes in bytes (0 = unlimited).
	StorageBudget int64
	// NoColumnstore restricts the search to B+ tree indexes (the
	// paper's B+-tree-only tuning baseline).
	NoColumnstore bool
	// NoMerging disables the index-merging step (ablation).
	NoMerging bool
	// SortedColumnstores enables sorted-columnstore candidates (the
	// Section 4.5 "Vertica projection" extension): a columnstore whose
	// rowgroups are globally ordered on a heavily filtered column,
	// giving B+-tree-like segment elimination. Off by default to stay
	// faithful to the paper's released DTA.
	SortedColumnstores bool
	// SizeMethod selects the columnstore size estimator.
	SizeMethod SizeMethod
	// MaxIndexes caps the number of recommended indexes (0 = no cap).
	MaxIndexes int
	// Seed drives sampling.
	Seed int64
}

// ProposedIndex is one recommended index.
type ProposedIndex struct {
	Table       string
	Columnstore bool
	Keys        []string
	Include     []string
	// SortColumns marks a sorted columnstore (Section 4.5 extension).
	SortColumns []string
	EstBytes    int64
}

// DDL renders the index as a CREATE INDEX statement.
func (p ProposedIndex) DDL(name string) string {
	if p.Columnstore {
		if len(p.SortColumns) > 0 {
			return fmt.Sprintf("CREATE NONCLUSTERED COLUMNSTORE INDEX %s ON %s (%s)",
				name, p.Table, strings.Join(p.SortColumns, ", "))
		}
		return fmt.Sprintf("CREATE NONCLUSTERED COLUMNSTORE INDEX %s ON %s", name, p.Table)
	}
	s := fmt.Sprintf("CREATE NONCLUSTERED INDEX %s ON %s (%s)", name, p.Table, strings.Join(p.Keys, ", "))
	if len(p.Include) > 0 {
		s += fmt.Sprintf(" INCLUDE (%s)", strings.Join(p.Include, ", "))
	}
	return s
}

// Recommendation is the tuning outcome.
type Recommendation struct {
	Indexes         []ProposedIndex
	BaselineCost    time.Duration // workload cost with existing design
	RecommendedCost time.Duration // workload cost with recommendation
	TotalBytes      int64
}

// Improvement returns BaselineCost / RecommendedCost.
func (r *Recommendation) Improvement() float64 {
	if r.RecommendedCost <= 0 {
		return 1
	}
	return float64(r.BaselineCost) / float64(r.RecommendedCost)
}

// Apply materializes the recommendation on the database.
func (r *Recommendation) Apply(db *engine.Database) error {
	for i, p := range r.Indexes {
		name := fmt.Sprintf("dta_%s_%d", p.Table, i+1)
		if _, err := db.Exec(p.DDL(name)); err != nil {
			return fmt.Errorf("advisor: applying %s: %w", name, err)
		}
	}
	return nil
}

// candidate is an internal candidate index.
type candidate struct {
	sig         string
	tbl         *table.Table
	columnstore bool
	keys        []int
	include     []int
	sortCols    []int // sorted-columnstore build order
	estBytes    int64
	colBytes    []int64
	hyp         *table.Secondary // installed hypothetical (while costing)
}

// boundStmt caches parse/bind work per statement.
type boundStmt struct {
	weight  float64
	sel     *sql.BoundSelect // nil for DML
	dmlTbl  *table.Table
	dmlConj []sql.Expr
	dmlTop  int64
	dmlRows float64 // estimated rows affected
	insert  bool
}

// Tune analyzes the workload and recommends a set of B+ tree and
// columnstore indexes (Section 4.3's candidate selection, merging, and
// workload-level greedy search).
func Tune(db *engine.Database, w Workload, opts Options) (*Recommendation, error) {
	binder := sql.NewBinder(db)
	var stmts []*boundStmt
	for _, st := range w {
		weight := st.Weight
		if weight <= 0 {
			weight = 1
		}
		parsed, err := sql.ParseOne(st.SQL)
		if err != nil {
			return nil, fmt.Errorf("advisor: %q: %w", st.SQL, err)
		}
		bs := &boundStmt{weight: weight}
		switch s := parsed.(type) {
		case *sql.SelectStmt:
			bound, err := binder.BindSelect(s)
			if err != nil {
				return nil, fmt.Errorf("advisor: %q: %w", st.SQL, err)
			}
			bs.sel = bound
		case *sql.UpdateStmt:
			bound, err := binder.BindUpdate(s)
			if err != nil {
				return nil, err
			}
			bs.dmlTbl = db.Table(bound.Table)
			bs.dmlConj = bound.Conjuncts
			bs.dmlTop = bound.Top
		case *sql.DeleteStmt:
			bound, err := binder.BindDelete(s)
			if err != nil {
				return nil, err
			}
			bs.dmlTbl = db.Table(bound.Table)
			bs.dmlConj = bound.Conjuncts
			bs.dmlTop = bound.Top
		case *sql.InsertStmt:
			bound, err := binder.BindInsert(s)
			if err != nil {
				return nil, err
			}
			bs.dmlTbl = db.Table(bound.Table)
			bs.dmlRows = float64(len(bound.Rows))
			bs.insert = true
		default:
			return nil, fmt.Errorf("advisor: unsupported statement %T", parsed)
		}
		stmts = append(stmts, bs)
	}

	// --- Candidate selection (per query, Section 4.3) ---
	pool := map[string]*candidate{}
	for _, bs := range stmts {
		if bs.sel != nil {
			for _, c := range selectCandidates(db, bs.sel, opts) {
				if _, dup := pool[c.sig]; !dup {
					pool[c.sig] = c
				}
			}
			continue
		}
		if bs.dmlTbl != nil && len(bs.dmlConj) > 0 {
			// Indexes that help locate DML target rows.
			for _, c := range dmlCandidates(bs.dmlTbl, bs.dmlConj, opts) {
				if _, dup := pool[c.sig]; !dup {
					pool[c.sig] = c
				}
			}
		}
	}

	// --- Index merging (never merges a columnstore) ---
	cands := mergeCandidates(pool, opts)
	mCandidates.Add(int64(len(cands)))

	// Size estimation.
	for _, c := range cands {
		if c.columnstore {
			c.estBytes, c.colBytes = EstimateCSISize(c.tbl, opts.SizeMethod, opts.Seed+int64(len(c.sig)))
		} else {
			c.estBytes = EstimateBTreeSize(c.tbl, c.keys, c.include)
		}
	}

	// --- Workload-level greedy search ---
	model := db.Model()
	evalCost := func(chosen []*candidate) time.Duration {
		install(chosen)
		defer uninstall(chosen)
		return workloadCost(db, stmts, chosen, model, opts)
	}

	baseline := evalCost(nil)
	var chosen []*candidate
	var usedBytes int64
	cur := baseline
	for {
		if opts.MaxIndexes > 0 && len(chosen) >= opts.MaxIndexes {
			break
		}
		var best *candidate
		bestCost := cur
		for _, c := range cands {
			if contains(chosen, c) {
				continue
			}
			if opts.StorageBudget > 0 && usedBytes+c.estBytes > opts.StorageBudget {
				continue
			}
			if c.columnstore && hasCSI(chosen, c.tbl) {
				continue
			}
			cost := evalCost(append(chosen, c))
			if cost < bestCost {
				bestCost = cost
				best = c
			}
		}
		if best == nil || bestCost >= cur {
			break
		}
		chosen = append(chosen, best)
		usedBytes += best.estBytes
		cur = bestCost
	}

	rec := &Recommendation{BaselineCost: baseline, RecommendedCost: cur, TotalBytes: usedBytes}
	for _, c := range chosen {
		p := ProposedIndex{Table: c.tbl.Name, Columnstore: c.columnstore, EstBytes: c.estBytes}
		for _, k := range c.keys {
			p.Keys = append(p.Keys, c.tbl.Schema.Columns[k].Name)
		}
		for _, k := range c.include {
			p.Include = append(p.Include, c.tbl.Schema.Columns[k].Name)
		}
		for _, k := range c.sortCols {
			p.SortColumns = append(p.SortColumns, c.tbl.Schema.Columns[k].Name)
		}
		rec.Indexes = append(rec.Indexes, p)
	}
	return rec, nil
}

func contains(cs []*candidate, c *candidate) bool {
	for _, x := range cs {
		if x == c {
			return true
		}
	}
	return false
}

func hasCSI(chosen []*candidate, t *table.Table) bool {
	if t.SecondaryCSI() != nil || t.Primary() == table.PrimaryColumnstore {
		return true
	}
	for _, c := range chosen {
		if c.columnstore && c.tbl == t {
			return true
		}
	}
	return false
}

// install registers candidates as hypothetical indexes (what-if mode).
func install(cs []*candidate) {
	for _, c := range cs {
		sec := &table.Secondary{
			Name:        "hyp_" + c.sig,
			Columnstore: c.columnstore,
			Keys:        c.keys,
			Include:     c.include,
			SortColumns: c.sortCols,
			EstRows:     c.tbl.RowCount(),
			EstBytes:    c.estBytes,
			ColBytes:    c.colBytes,
		}
		c.hyp = sec
		c.tbl.AddHypothetical(sec)
	}
}

func uninstall(cs []*candidate) {
	for _, c := range cs {
		if c.hyp != nil {
			c.tbl.DropSecondary(c.hyp.Name)
			c.hyp = nil
		}
	}
}

// workloadCost sums optimizer-estimated costs over the workload,
// including index maintenance for DML (Section 4.3: "the
// workload-level search considers this maintenance cost").
func workloadCost(db *engine.Database, stmts []*boundStmt, chosen []*candidate, model *vclock.Model, opts Options) time.Duration {
	mWhatIf.Inc()
	oopts := optimizer.Options{Model: model, ExecOptions: engine.ExecOptions{NoColumnstore: opts.NoColumnstore}}
	var total float64
	for _, bs := range stmts {
		var cost time.Duration
		switch {
		case bs.sel != nil:
			root, err := optimizer.Optimize(db, bs.sel, oopts)
			if err != nil {
				continue
			}
			_, cost = root.Estimate()
		case bs.insert:
			cost = maintenanceCost(bs.dmlTbl, chosen, bs.dmlRows, model)
		default:
			scan := optimizer.ChooseDMLScan(bs.dmlTbl, bs.dmlConj, oopts)
			rows, locate := scan.Estimate()
			if bs.dmlTop > 0 && float64(bs.dmlTop) < rows {
				rows = float64(bs.dmlTop)
			}
			cost = locate + maintenanceCost(bs.dmlTbl, chosen, rows, model)
		}
		total += float64(cost) * bs.weight
	}
	return time.Duration(total)
}

// maintenanceCost estimates the per-statement cost of maintaining the
// table's indexes (existing + proposed) for rows modified rows. The
// constants encode the paper's Section 3.3 asymmetry: B+ trees are the
// cheapest to update; a secondary columnstore costs a small multiple
// (delete buffer + delta store); a primary columnstore pays a locate
// scan.
func maintenanceCost(t *table.Table, chosen []*candidate, rows float64, model *vclock.Model) time.Duration {
	perBTree := model.SeekCPU + 2*vclock.CPU(1, model.RowCPU) + model.PageCPU
	var cost time.Duration
	// Primary structure.
	switch t.Primary() {
	case table.PrimaryColumnstore:
		cost += vclock.CPU(t.RowCount(), model.BatchCPU) // locate scan
		cost += time.Duration(rows) * perBTree
	default:
		cost += time.Duration(rows) * perBTree
	}
	count := func(columnstore bool) time.Duration {
		if columnstore {
			return time.Duration(rows) * (perBTree*2 + vclock.CPU(1, model.RowCPU))
		}
		return time.Duration(rows) * perBTree
	}
	for _, s := range t.Secondaries {
		if s.Hypothetical {
			continue // counted below if chosen
		}
		cost += count(s.Columnstore)
	}
	for _, c := range chosen {
		if c.tbl == t {
			cost += count(c.columnstore)
		}
	}
	return cost
}

// selectCandidates generates per-query candidates (Section 4.3).
func selectCandidates(db *engine.Database, b *sql.BoundSelect, opts Options) []*candidate {
	var out []*candidate
	offsets := make([]int, len(b.Tables))
	widths := make([]int, len(b.Tables))
	for i, bt := range b.Tables {
		offsets[i] = bt.Offset
		widths[i] = bt.Schema.Len()
	}
	for ti, bt := range b.Tables {
		t := db.Table(bt.Ref.Table)
		if t == nil {
			continue
		}
		var eqCols, rangeCols, joinCols []int
		refCols := map[int]bool{}
		addRef := func(e sql.Expr) {
			sql.WalkExprs(e, func(x sql.Expr) {
				if c, ok := x.(*sql.ColRef); ok && c.TableIdx == ti {
					refCols[c.Col] = true
				}
			})
		}
		for _, it := range b.Items {
			addRef(it.Expr)
		}
		for _, g := range b.GroupBy {
			addRef(g)
		}
		for _, o := range b.OrderBy {
			if o.Expr != nil {
				addRef(o.Expr)
			}
		}
		for _, c := range b.Conjuncts {
			addRef(c)
			switch n := c.(type) {
			case *sql.BinOp:
				if n.Op == "=" {
					l, lok := n.L.(*sql.ColRef)
					r, rok := n.R.(*sql.ColRef)
					if lok && rok && l.TableIdx != r.TableIdx {
						if l.TableIdx == ti {
							joinCols = append(joinCols, l.Col)
						}
						if r.TableIdx == ti {
							joinCols = append(joinCols, r.Col)
						}
						continue
					}
				}
				if col, _, op := sargableCol(n); col != nil && col.TableIdx == ti {
					if op == "=" {
						eqCols = append(eqCols, col.Col)
					} else {
						rangeCols = append(rangeCols, col.Col)
					}
				}
			case *sql.Between:
				if col, ok := n.E.(*sql.ColRef); ok && col.TableIdx == ti && !n.Not {
					rangeCols = append(rangeCols, col.Col)
				}
			}
		}
		ref := sortedKeys(refCols)

		// B+ tree candidate from the predicate columns.
		if len(eqCols)+len(rangeCols) > 0 {
			keys := dedupe(eqCols)
			if len(rangeCols) > 0 {
				keys = append(keys, rangeCols[0])
				keys = dedupe(keys)
			}
			out = append(out, newBTreeCandidate(t, keys, minus(ref, keys)))
		}
		// B+ tree candidates on join columns (enable index nested loops).
		for _, jc := range dedupe(joinCols) {
			out = append(out, newBTreeCandidate(t, []int{jc}, minus(ref, []int{jc})))
		}
		// Columnstore candidate: all supported columns (option (ii) in
		// Section 4.3), at most one per table.
		if !opts.NoColumnstore && t.SecondaryCSI() == nil && t.Primary() != table.PrimaryColumnstore {
			out = append(out, newCSICandidate(t))
			// Sorted-columnstore variant (Section 4.5 extension): order
			// the rowgroups on the query's range column so segment
			// elimination approaches a B+ tree range scan.
			if opts.SortedColumnstores && len(rangeCols) > 0 {
				out = append(out, newSortedCSICandidate(t, rangeCols[0]))
			}
		}
	}
	return out
}

// dmlCandidates proposes indexes that speed up locating DML targets.
func dmlCandidates(t *table.Table, conjuncts []sql.Expr, opts Options) []*candidate {
	var eqCols, rangeCols []int
	for _, c := range conjuncts {
		switch n := c.(type) {
		case *sql.BinOp:
			if col, _, op := sargableCol(n); col != nil {
				if op == "=" {
					eqCols = append(eqCols, col.Col)
				} else {
					rangeCols = append(rangeCols, col.Col)
				}
			}
		case *sql.Between:
			if col, ok := n.E.(*sql.ColRef); ok && !n.Not {
				rangeCols = append(rangeCols, col.Col)
			}
		}
	}
	if len(eqCols)+len(rangeCols) == 0 {
		return nil
	}
	keys := dedupe(eqCols)
	if len(rangeCols) > 0 {
		keys = dedupe(append(keys, rangeCols[0]))
	}
	return []*candidate{newBTreeCandidate(t, keys, nil)}
}

func newBTreeCandidate(t *table.Table, keys, include []int) *candidate {
	sig := fmt.Sprintf("bt:%s:%v:%v", t.Name, keys, include)
	return &candidate{sig: sig, tbl: t, keys: keys, include: include}
}

func newCSICandidate(t *table.Table) *candidate {
	return &candidate{sig: "csi:" + t.Name, tbl: t, columnstore: true}
}

func newSortedCSICandidate(t *table.Table, sortCol int) *candidate {
	return &candidate{
		sig: fmt.Sprintf("scsi:%s:%d", t.Name, sortCol),
		tbl: t, columnstore: true, sortCols: []int{sortCol},
	}
}

// mergeCandidates merges B+ tree candidates with identical leading
// keys on the same table by unioning their included columns; a
// columnstore never merges with anything (Section 4.3).
func mergeCandidates(pool map[string]*candidate, opts Options) []*candidate {
	var out []*candidate
	if opts.NoMerging {
		for _, c := range pool {
			out = append(out, c)
		}
		sort.Slice(out, func(i, j int) bool { return out[i].sig < out[j].sig })
		return out
	}
	byKey := map[string]*candidate{}
	for _, c := range pool {
		if c.columnstore {
			out = append(out, c)
			continue
		}
		k := fmt.Sprintf("%s:%v", c.tbl.Name, c.keys)
		if m, ok := byKey[k]; ok {
			m.include = dedupe(append(m.include, c.include...))
			m.include = minus(m.include, m.keys)
			m.sig = fmt.Sprintf("bt:%s:%v:%v", m.tbl.Name, m.keys, m.include)
		} else {
			cp := *c
			byKey[k] = &cp
		}
	}
	for _, c := range byKey {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].sig < out[j].sig })
	return out
}

func sargableCol(n *sql.BinOp) (*sql.ColRef, *sql.Lit, string) {
	switch n.Op {
	case "=", "<", "<=", ">", ">=":
	default:
		return nil, nil, ""
	}
	if col, ok := n.L.(*sql.ColRef); ok {
		if lit, ok := n.R.(*sql.Lit); ok {
			return col, lit, n.Op
		}
	}
	if col, ok := n.R.(*sql.ColRef); ok {
		if lit, ok := n.L.(*sql.Lit); ok {
			return col, lit, n.Op
		}
	}
	return nil, nil, ""
}

func dedupe(a []int) []int {
	seen := map[int]bool{}
	var out []int
	for _, x := range a {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}

func minus(a, b []int) []int {
	drop := map[int]bool{}
	for _, x := range b {
		drop[x] = true
	}
	var out []int
	for _, x := range a {
		if !drop[x] {
			out = append(out, x)
		}
	}
	return out
}

func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
