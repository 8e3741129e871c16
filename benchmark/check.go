package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"hybriddb/internal/engine"
	"hybriddb/internal/value"
)

// digest fingerprints a result set without allocating, so every result
// of a measured run can be checked.
//
// Exact values (integers, strings, dates, booleans, NULL) are hashed
// per row; row hashes are summed when row order is unspecified and
// chained when the query has ORDER BY. Floats are kept out of the hash:
// a sum's last bits depend on the order its terms were added in, and
// rounding before hashing only makes a mismatch rarer, not impossible.
// They are accumulated into one weighted total instead, each row's
// floats weighted by the hash of its exact values so that a float
// moving to another row changes the total, and totals are compared
// with a relative tolerance.
type digest struct {
	Rows  int64
	Exact uint64  // hash over the exact values
	FSum  float64 // weighted total of the floats
	FAbs  float64 // the same over absolute values: the scale of the tolerance

	ordered bool
	rowHash uint64
	rowF    float64
	rowFAbs float64
	col     int
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211

	tagNull  = 0
	tagInt   = 1
	tagStr   = 3
	tagBool  = 4
	tagDate  = 5
	tagFloat = 2 // marks the column's place in the row hash; the value goes to FSum
)

// floatTolerance is the relative difference two float totals may have
// and still count as the same answer.
const floatTolerance = 1e-9

func newDigest(ordered bool) digest {
	return digest{ordered: ordered, rowHash: fnvOffset}
}

func (d *digest) hashByte(b byte) {
	d.rowHash = (d.rowHash ^ uint64(b)) * fnvPrime
}

func (d *digest) hashU64(v uint64) {
	for i := 0; i < 8; i++ {
		d.hashByte(byte(v))
		v >>= 8
	}
}

func (d *digest) addNull() { d.hashByte(tagNull); d.col++ }

func (d *digest) addInt(v int64) { d.hashByte(tagInt); d.hashU64(uint64(v)); d.col++ }

func (d *digest) addDate(days int64) { d.hashByte(tagDate); d.hashU64(uint64(days)); d.col++ }

func (d *digest) addStr(s string) {
	d.hashByte(tagStr)
	d.hashU64(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		d.hashByte(s[i])
	}
	d.col++
}

func (d *digest) addBool(b bool) {
	d.hashByte(tagBool)
	if b {
		d.hashByte(1)
	} else {
		d.hashByte(0)
	}
	d.col++
}

func (d *digest) addFloat(f float64) {
	d.hashByte(tagFloat)
	d.col++
	w := float64(d.col)
	d.rowF += w * f
	d.rowFAbs += w * math.Abs(f)
}

func (d *digest) endRow() {
	w := float64(d.rowHash%1021 + 1)
	d.FSum += w * d.rowF
	d.FAbs += w * d.rowFAbs
	if d.ordered {
		d.Exact = (d.Exact^d.rowHash)*fnvPrime + uint64(d.Rows)
	} else {
		d.Exact += d.rowHash
	}
	d.Rows++
	d.rowHash, d.rowF, d.rowFAbs, d.col = fnvOffset, 0, 0, 0
}

func (d *digest) addValue(v value.Value) {
	switch v.Kind() {
	case value.KindNull:
		d.addNull()
	case value.KindInt:
		d.addInt(v.Int())
	case value.KindFloat:
		d.addFloat(v.Float())
	case value.KindString:
		d.addStr(v.Str())
	case value.KindBool:
		d.addBool(v.Bool())
	case value.KindDate:
		d.addDate(v.Int())
	default:
		d.addStr(v.String())
	}
}

func digestRows(rows []value.Row, ordered bool) digest {
	d := newDigest(ordered)
	for _, r := range rows {
		for _, v := range r {
			d.addValue(v)
		}
		d.endRow()
	}
	return d
}

// fold chains another result's digest into d, for a digest over a
// whole stream of results.
func (d *digest) fold(o digest) {
	d.Rows += o.Rows
	d.Exact = (d.Exact^o.Exact)*fnvPrime + uint64(o.Rows)
	d.FSum += o.FSum
	d.FAbs += o.FAbs
}

func (d digest) equal(o digest) bool {
	return d.Rows == o.Rows && d.Exact == o.Exact &&
		math.Abs(d.FSum-o.FSum) <= floatTolerance*math.Max(d.FAbs, o.FAbs)
}

func (d digest) String() string {
	return fmt.Sprintf("rows=%d exact=%016x fsum=%g", d.Rows, d.Exact, d.FSum)
}

// digestJSON is a digest in a golden file. Exact is hex: a uint64 does
// not survive a float64 JSON number.
type digestJSON struct {
	Rows  int64   `json:"rows"`
	Exact string  `json:"exact"`
	FSum  float64 `json:"fsum"`
	FAbs  float64 `json:"fabs"`
}

func (d digest) MarshalJSON() ([]byte, error) {
	return json.Marshal(digestJSON{d.Rows, strconv.FormatUint(d.Exact, 16), d.FSum, d.FAbs})
}

func (d *digest) UnmarshalJSON(b []byte) error {
	var raw digestJSON
	if err := json.Unmarshal(b, &raw); err != nil {
		return err
	}
	exact, err := strconv.ParseUint(raw.Exact, 16, 64)
	if err != nil {
		return fmt.Errorf("golden digest: %w", err)
	}
	*d = digest{Rows: raw.Rows, Exact: exact, FSum: raw.FSum, FAbs: raw.FAbs}
	return nil
}

// tableState digests every table's final contents, order-independent.
func tableState(db *engine.Database) (map[string]digest, error) {
	out := map[string]digest{}
	for name := range db.Tables() {
		res, err := db.Exec("SELECT * FROM " + name)
		if err != nil {
			return nil, fmt.Errorf("table state of %s: %w", name, err)
		}
		out[name] = digestRows(res.Rows, false)
	}
	return out, nil
}

// goldenWorkload is the committed answers of one workload at one scale
// and seed 1.
type goldenWorkload struct {
	// Ops is the operation count the goldens were taken at; stream and
	// table digests of the write workloads only hold at that count.
	Ops int `json:"ops"`
	// Queries maps a statement's text to its result digest (read-only
	// workloads).
	Queries map[string]digest `json:"queries,omitempty"`
	// Reads chains the digests of every SELECT in stream order, and
	// Tables digests the final contents (write workloads).
	Reads  *digest           `json:"reads,omitempty"`
	Tables map[string]digest `json:"tables,omitempty"`
}

// goldenFile is testdata/golden-seed1.json: scale name → workload →
// answers.
type goldenFile map[string]map[string]*goldenWorkload

const goldenSeed = 1

//go:embed testdata/golden-seed1.json
var goldenJSON []byte

func loadGoldens() (goldenFile, error) {
	g := goldenFile{}
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("testdata/golden-seed1.json: %w", err)
	}
	return g, nil
}

// benchDir is the benchmark's source directory as seen from the working
// directory: run.sh runs the binary from the repository root, `go run .`
// and `go test` from the directory itself.
func benchDir() string {
	if _, err := os.Stat("testdata"); err == nil {
		return "."
	}
	return "benchmark"
}

func writeGoldens(g goldenFile) error {
	b, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(benchDir(), "testdata", "golden-seed1.json"), append(b, '\n'), 0o644)
}

// checker counts attempted and failed operations and keeps the first
// few failures for the report.
type checker struct {
	attempted int
	failed    int
	failures  []string
}

func (c *checker) fail(format string, args ...any) {
	c.failed++
	if len(c.failures) < 8 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// checkWrite checks a write's rows affected: INSERT and point UPDATE
// change exactly one row, TOP (n) at most n.
func (c *checker) checkWrite(st *stmt, affected int64) {
	if st.top {
		if affected > st.maxRows || affected < 0 {
			c.fail("%s: %d rows affected, want at most %d", st.tmpl, affected, st.maxRows)
		}
	} else if affected != st.maxRows {
		c.fail("%s: %d rows affected, want %d", st.tmpl, affected, st.maxRows)
	}
}

// checkGolden compares what a run saw with the committed goldens.
func (c *checker) checkGolden(want, got *goldenWorkload) {
	for text, d := range got.Queries {
		w, ok := want.Queries[text]
		if !ok {
			c.fail("no golden for query %q (run -update-golden)", text)
		} else if !w.equal(d) {
			c.fail("golden mismatch for %q: got %v, want %v", text, d, w)
		}
	}
	if want.Ops != got.Ops {
		return // other run length: the stream and the final state differ
	}
	if got.Reads != nil && want.Reads != nil && !want.Reads.equal(*got.Reads) {
		c.fail("golden mismatch for the read stream: got %v, want %v", *got.Reads, *want.Reads)
	}
	names := make([]string, 0, len(got.Tables))
	for name := range got.Tables {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if w, ok := want.Tables[name]; !ok || !w.equal(got.Tables[name]) {
			c.fail("golden mismatch for final table %s: got %v, want %v", name, got.Tables[name], w)
		}
	}
}
