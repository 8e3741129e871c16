package optimizer_test

import (
	"slices"
	"testing"

	"hybriddb/internal/engine"
	"hybriddb/internal/plan"
	"hybriddb/internal/value"
	"hybriddb/internal/vclock"
	"hybriddb/internal/workload"
)

// TestJoinKeysCollectEquiPairs: every column = column equality between a
// join's two inputs is one of its key pairs, Keys[0] first — the pair
// that alone keyed the join when the others ran as residual conjuncts —
// and each pair after the first still halves the row estimate as a
// residual did, so no estimate moved. The slots are composite-row
// positions on the 2-warehouse hybrid CH database of the root package's
// spine golden: oorder's o_w_id, o_d_id, o_id are 0-2 and orderline's
// ol_w_id, ol_d_id, ol_o_id 7-9. Q10 puts ch_customer first: c_id is 2,
// o_id 10, o_c_id 11 and ol_o_id 17. The estimates were taken before
// the other pairs were keys.
func TestJoinKeysCollectEquiPairs(t *testing.T) {
	cfg := workload.DefaultCH()
	cfg.Warehouses, cfg.CustomersPerD, cfg.OrdersPerD, cfg.ItemCount, cfg.RowGroupSize = 2, 60, 80, 400, 1024
	db := workload.BuildCH(vclock.DefaultModel(vclock.DRAM), cfg)
	for _, tbl := range []string{"orderline", "oorder", "stock", "ch_item", "ch_customer", "ch_supplier"} {
		if _, err := db.Exec("CREATE NONCLUSTERED COLUMNSTORE INDEX csi_" + tbl + " ON " + tbl); err != nil {
			t.Fatal(err)
		}
	}
	type join struct {
		keys []plan.JoinKey
		rows float64
	}
	k := func(l, r int) plan.JoinKey { return plan.JoinKey{Left: l, Right: r, Kind: value.KindInt} }
	ch := workload.CHQueries()
	for _, c := range []struct {
		name, sql string
		joins     []join // in plan.Walk order
	}{
		// o_id = ol_o_id keyed the join alone; ol_d_id = o_d_id and
		// ol_w_id = o_w_id were residual, in this order.
		{"Q03", ch[2], []join{{[]plan.JoinKey{k(2, 9), k(1, 8), k(0, 7)}, 53560.55625}}},
		{"Q18", ch[17], []join{{[]plan.JoinKey{k(2, 9), k(0, 7), k(1, 8)}, 79570}}},
		// One pair per join: nothing to collect.
		{"Q10", ch[9], []join{{[]plan.JoinKey{k(10, 17)}, 6365.6}, {[]plan.JoinKey{k(2, 11)}, 320}}},
		{"top_hashjoin_residual", `SELECT TOP 10 o_id, ol_amount FROM oorder JOIN orderline ON ol_o_id = o_id WHERE ol_w_id = o_w_id AND ol_d_id = o_d_id`,
			[]join{{[]plan.JoinKey{k(2, 9), k(0, 7), k(1, 8)}, 79570}}},
	} {
		root, err := db.Plan(c.sql, engine.ExecOptions{})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var got []join
		plan.Walk(root, func(n plan.Node) {
			if j, ok := n.(*plan.Join); ok {
				got = append(got, join{j.Keys, j.Est.Rows})
			}
		})
		if !slices.EqualFunc(got, c.joins, func(a, b join) bool { return slices.Equal(a.keys, b.keys) && a.rows == b.rows }) {
			t.Errorf("%s: joins %+v, want %+v\n%s", c.name, got, c.joins, plan.Shape(root))
		}
	}
}
