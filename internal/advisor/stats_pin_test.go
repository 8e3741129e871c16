package advisor

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"math"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"hybriddb/internal/engine"
	"hybriddb/internal/stats"
	"hybriddb/internal/table"
	"hybriddb/internal/value"
	"hybriddb/internal/vclock"
	"hybriddb/internal/workload"
)

var updatePin = flag.Bool("update", false, "rewrite testdata/stats_pin.json from this build")

const statsPinFile = "testdata/stats_pin.json"

// tablePin is what one table's statistics pin: a digest per column of
// its histogram and both columnstore size estimates (total, then one
// size per column).
type tablePin struct {
	Columns  []string `json:"columns"`
	BlackBox []int64  `json:"csi_black_box"`
	GEE      []int64  `json:"csi_gee"`
}

// histogramDigest hashes every field of h: values through EncodeKey
// (so −0.0 and +0.0 digest alike, as they compare alike), counts as
// float bits.
func histogramDigest(h *stats.Histogram) string {
	d := sha256.New()
	var buf []byte
	f := func(x float64) { buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(x)) }
	v := func(x value.Value) {
		k := value.EncodeKey(nil, x)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(k)))
		buf = append(buf, k...)
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(h.Bounds)))
	for i, b := range h.Bounds {
		v(b)
		f(h.Counts[i])
	}
	f(h.Total)
	f(h.NullCount)
	f(h.Distinct)
	v(h.Min)
	v(h.Max)
	d.Write(buf)
	return hex.EncodeToString(d.Sum(nil)[:12])
}

func pinTable(t *table.Table) tablePin {
	st := t.Stats()
	var p tablePin
	for c := 0; c < t.Schema.Len(); c++ {
		p.Columns = append(p.Columns, histogramDigest(st.Histogram(c)))
	}
	for _, m := range []struct {
		method SizeMethod
		out    *[]int64
	}{{SizeBlackBox, &p.BlackBox}, {SizeGEE, &p.GEE}} {
		total, perCol := EstimateCSISize(t, m.method)
		*m.out = append([]int64{total}, perCol...)
	}
	return p
}

// mixedTable loads 24 000 rows (more than the 20 000-row sample, so
// the sample is partial) into a B+ tree table whose columns hold NULLs,
// −0.0 beside +0.0, ±Inf, empty and NUL-bearing strings, dates and
// booleans.
func mixedTable(t *testing.T) *table.Table {
	t.Helper()
	db := engine.New(vclock.DefaultModel(vclock.DRAM), 0)
	if _, err := db.Exec("CREATE TABLE m (id BIGINT, f DOUBLE, s VARCHAR(8), d DATE, b BOOLEAN, g BIGINT, PRIMARY KEY (id))"); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(41))
	floats := []float64{math.Copysign(0, -1), 0, -1.5, 2.25, math.Inf(1), math.Inf(-1)}
	strs := []string{"", "\x00", "a\x00", "a", "a\x00b", "b", "zz"}
	orNull := func(v value.Value) value.Value {
		if rng.Intn(9) == 0 {
			return value.Null
		}
		return v
	}
	rows := make([]value.Row, 24000)
	for i := range rows {
		f := floats[rng.Intn(len(floats))]
		if rng.Intn(3) == 0 {
			f = rng.NormFloat64() * 100
		}
		rows[i] = value.Row{
			value.NewInt(int64(i)),
			orNull(value.NewFloat(f)),
			orNull(value.NewString(strs[rng.Intn(len(strs))])),
			orNull(value.NewDate(13514 + rng.Int63n(700))),
			orNull(value.NewBool(rng.Intn(2) == 0)),
			orNull(value.NewInt(rng.Int63n(50) - 25)),
		}
	}
	db.Table("m").BulkLoad(nil, rows)
	return db.Table("m")
}

// TestStatsPin commits a digest of every column's histogram and both
// columnstore size estimates for a small CH database and a table whose
// sample is partial, so a change to how statistics sort, count or
// bucket values shows here rather than only through the plans the
// goldens pin.
func TestStatsPin(t *testing.T) {
	ch := workload.BuildCH(vclock.DefaultModel(vclock.DRAM), workload.CHConfig{
		Warehouses: 1, DistrictsPerW: 10, CustomersPerD: 30,
		ItemCount: 500, OrdersPerD: 300, Seed: 7, RowGroupSize: 4096,
	})
	got := map[string]tablePin{}
	for name, tb := range ch.Tables() {
		got["ch."+name] = pinTable(tb)
	}
	mixed := mixedTable(t)
	if n := len(mixed.Stats().Sample); int64(n) >= mixed.RowCount() {
		t.Fatalf("mixed table sampled whole (%d of %d rows): the pin needs a partial sample", n, mixed.RowCount())
	}
	got["mixed"] = pinTable(mixed)

	if *updatePin {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(statsPinFile, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(statsPinFile)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	var want map[string]tablePin
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	for name, w := range want {
		if g, ok := got[name]; !ok {
			t.Errorf("%s: table missing", name)
		} else if !reflect.DeepEqual(g, w) {
			t.Errorf("%s:\n got %+v\nwant %+v", name, g, w)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: not in %s", name, statsPinFile)
		}
	}
}
