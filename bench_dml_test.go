package hybriddb

import (
	"fmt"
	"testing"

	"hybriddb/internal/value"
)

// BenchmarkCCIDML runs DML on a 100 000-row clustered columnstore
// (8 192-row rowgroups) through the engine: a selective UPDATE TOP and
// a point DELETE of the most recently loaded rows, each located by one
// columnstore scan. Every iteration of delete removes a different row.
func BenchmarkCCIDML(b *testing.B) {
	const n = 100_000
	db := Open(WithRowGroupSize(8192))
	if _, err := db.Exec("CREATE TABLE c (k BIGINT, g BIGINT, v BIGINT)"); err != nil {
		b.Fatal(err)
	}
	rows := make([]value.Row, n)
	for i := range rows {
		rows[i] = value.Row{value.NewInt(int64(i)), value.NewInt(int64(i % 100)), value.NewInt(int64(i % 997))}
	}
	db.Internal().Table("c").BulkLoad(nil, rows)
	if _, err := db.Exec("CREATE CLUSTERED COLUMNSTORE INDEX cci ON c"); err != nil {
		b.Fatal(err)
	}
	exec := func(b *testing.B, sql string, want int64) {
		res, err := db.Exec(sql)
		if err != nil {
			b.Fatal(err)
		}
		if res.RowsAffected != want {
			b.Fatalf("%s: %d rows affected, want %d", sql, res.RowsAffected, want)
		}
	}
	b.Run("update_top", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			exec(b, "UPDATE TOP (25) c SET v = v + 1 WHERE g = 3", 25)
		}
	})
	next := n - 1 // the next row to delete, across b.Run's rounds
	b.Run("delete", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if next < 0 {
				b.Fatal("every row is deleted")
			}
			exec(b, fmt.Sprintf("DELETE FROM c WHERE k = %d", next), 1)
			next--
		}
	})
}
