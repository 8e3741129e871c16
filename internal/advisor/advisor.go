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
// workload-level greedy search). It only reads the database — candidates
// reach the optimizer as its what-if input, never through the catalog —
// and holds the shared statement lock throughout, like one long SELECT:
// readers proceed beside it, writers wait for it.
func Tune(db *engine.Database, w Workload, opts Options) (*Recommendation, error) {
	db.SessionManager().RLock()
	defer db.SessionManager().RUnlock()
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
		var cs []*candidate
		if bs.sel != nil {
			cs = selectCandidates(db, bs.sel, opts)
		} else if bs.dmlTbl != nil {
			cs = dmlCandidates(bs.dmlTbl, bs.dmlConj) // indexes that help locate DML target rows
		}
		for _, c := range cs {
			if _, dup := pool[c.sig]; !dup {
				pool[c.sig] = c
			}
		}
	}

	// --- Index merging (never merges a columnstore) ---
	cands := mergeCandidates(pool, opts)
	mCandidates.Add(int64(len(cands)))

	// Size estimation.
	for _, c := range cands {
		if c.columnstore {
			c.estBytes, c.colBytes = EstimateCSISize(c.tbl, opts.SizeMethod)
		} else {
			c.estBytes = EstimateBTreeSize(c.tbl, c.keys, c.include)
		}
	}

	// --- Workload-level greedy search ---
	model := db.Model()
	baseline := workloadCost(db, stmts, nil, model, opts)
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
			cost := workloadCost(db, stmts, append(chosen, c), model, opts)
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

// whatIf renders candidates as the optimizer's what-if input:
// metadata-only indexes per table.
func whatIf(cs []*candidate) map[*table.Table][]*table.Secondary {
	m := make(map[*table.Table][]*table.Secondary, len(cs))
	for _, c := range cs {
		m[c.tbl] = append(m[c.tbl], &table.Secondary{
			Name:         "hyp_" + c.sig,
			Hypothetical: true,
			Columnstore:  c.columnstore,
			Keys:         c.keys,
			Include:      c.include,
			SortColumns:  c.sortCols,
			EstRows:      c.tbl.RowCount(),
			EstBytes:     c.estBytes,
			ColBytes:     c.colBytes,
		})
	}
	return m
}

// workloadCost sums optimizer-estimated costs over the workload,
// including index maintenance for DML (Section 4.3: "the
// workload-level search considers this maintenance cost").
func workloadCost(db *engine.Database, stmts []*boundStmt, chosen []*candidate, model *vclock.Model, opts Options) time.Duration {
	mWhatIf.Inc()
	oopts := optimizer.Options{Model: model, ExecOptions: engine.ExecOptions{NoColumnstore: opts.NoColumnstore}, WhatIf: whatIf(chosen)}
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
			if bs.dmlTop != sql.NoTop && float64(bs.dmlTop) < rows {
				rows = float64(bs.dmlTop)
			}
			cost = locate + maintenanceCost(bs.dmlTbl, chosen, rows, model)
			if bs.dmlTbl.Primary() == table.PrimaryColumnstore {
				// table.cciDeleteByUID finds the located rows' positions
				// with a second scan of the UID column.
				cost += vclock.CPU(bs.dmlTbl.RowCount(), model.BatchCPU)
			}
		}
		total += float64(cost) * bs.weight
	}
	return time.Duration(total)
}

// maintenanceCost estimates the per-statement cost of maintaining the
// table's indexes (existing + proposed) for rows modified rows. The
// constants encode the paper's Section 3.3 asymmetry: B+ trees are the
// cheapest to update; a secondary columnstore costs a small multiple
// (delete buffer + delta store). A primary columnstore's locate scan is
// charged by UPDATE and DELETE only: an INSERT goes to its delta store.
func maintenanceCost(t *table.Table, chosen []*candidate, rows float64, model *vclock.Model) time.Duration {
	perBTree := model.SeekCPU + 2*vclock.CPU(1, model.RowCPU) + model.PageCPU
	cost := time.Duration(rows) * perBTree // primary structure
	count := func(columnstore bool) time.Duration {
		if columnstore {
			return time.Duration(rows) * (perBTree*2 + vclock.CPU(1, model.RowCPU))
		}
		return time.Duration(rows) * perBTree
	}
	for _, s := range t.Secondaries {
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
		var joinCols []int
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
			if n, ok := c.(*sql.BinOp); ok && n.Op == "=" {
				l, lok := n.L.(*sql.ColRef)
				r, rok := n.R.(*sql.ColRef)
				if lok && rok && l.TableIdx != r.TableIdx {
					if l.TableIdx == ti {
						joinCols = append(joinCols, l.Col)
					}
					if r.TableIdx == ti {
						joinCols = append(joinCols, r.Col)
					}
				}
			}
		}
		keys, rangeCols := seekKeys(b.Conjuncts, ti)
		ref := sortedKeys(refCols)

		// B+ tree candidate from the predicate columns.
		if len(keys) > 0 {
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
func dmlCandidates(t *table.Table, conjuncts []sql.Expr) []*candidate {
	keys, _ := seekKeys(conjuncts, 0)
	if len(keys) == 0 {
		return nil
	}
	return []*candidate{newBTreeCandidate(t, keys, nil)}
}

// seekKeys returns the B+ tree key that table ti's column-versus-constant
// conjuncts suggest — its equality columns, then its first range column
// (BETWEEN counts as a range) — and all its range columns, in conjunct
// order.
func seekKeys(conjuncts []sql.Expr, ti int) (keys, rangeCols []int) {
	var eqCols []int
	for _, c := range conjuncts {
		if col, op, _, ok := sql.AsComparison(c); ok && col.TableIdx == ti {
			if op == "=" {
				eqCols = append(eqCols, col.Col)
			} else if op != "<>" {
				rangeCols = append(rangeCols, col.Col)
			}
		} else if n, ok := c.(*sql.Between); ok && !n.Not {
			if col, ok := n.E.(*sql.ColRef); ok && col.TableIdx == ti {
				rangeCols = append(rangeCols, col.Col)
			}
		}
	}
	if len(rangeCols) > 0 {
		eqCols = append(eqCols, rangeCols[0])
	}
	return dedupe(eqCols), rangeCols
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
