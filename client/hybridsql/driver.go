package hybridsql

import (
	"context"
	"database/sql"
	"database/sql/driver"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"hybriddb/internal/value"
	"hybriddb/internal/wire"
)

func init() { sql.Register("hybrid", &Driver{}) }

// Driver implements database/sql/driver.Driver for hybriddb's wire
// protocol.
type Driver struct{}

// Open dials the DSN and returns a connection.
func (Driver) Open(dsn string) (driver.Conn, error) {
	c, err := Dial(dsn)
	if err != nil {
		return nil, err
	}
	return &conn{c: c}, nil
}

// conn is one driver connection over one wire Client. database/sql
// guarantees single-goroutine use of a driver.Conn, matching the
// Client's synchronous protocol.
type conn struct{ c *Client }

// Prepare returns a statement handle. Queries with '?' placeholders
// are interpolated client-side at execution (the engine's SQL dialect
// has no parameter markers); literal queries are prepared server-side
// so repeated executions skip the parse.
func (cn *conn) Prepare(query string) (driver.Stmt, error) {
	n := countPlaceholders(query)
	s := &stmt{cn: cn, query: query, numInput: n, serverID: -1}
	if n == 0 {
		id, err := cn.c.Prepare(query)
		if err != nil {
			var se *ServerError
			if !errors.As(err, &se) {
				return nil, err // connection-level failure
			}
			// Server-side parse rejected it (e.g. dialect mismatch):
			// fall back to direct exec so errors surface at run time
			// like database/sql users expect.
			return s, nil
		}
		s.serverID = id
	}
	return s, nil
}

// Close sends Quit and closes the socket.
func (cn *conn) Close() error { return cn.c.Close() }

// Begin is unsupported: the engine's unit of isolation is the
// statement (the paper's workloads are autocommit).
func (cn *conn) Begin() (driver.Tx, error) {
	return nil, errors.New("hybridsql: transactions are not supported (statements autocommit)")
}

// Ping implements driver.Pinger.
func (cn *conn) Ping(_ context.Context) error { return cn.c.Ping() }

// stmt is one prepared statement handle.
type stmt struct {
	cn       *conn
	query    string
	numInput int
	serverID int64 // -1: interpolate/exec by text
}

func (s *stmt) Close() error {
	if s.serverID >= 0 {
		id := s.serverID
		s.serverID = -1
		return s.cn.c.ClosePrepared(id)
	}
	return nil
}

func (s *stmt) NumInput() int { return s.numInput }

func (s *stmt) run(args []driver.Value) (*wire.ResultHeader, []value.Row, error) {
	if len(args) != s.numInput {
		return nil, nil, fmt.Errorf("hybridsql: statement needs %d arguments, got %d", s.numInput, len(args))
	}
	if s.serverID >= 0 {
		return s.cn.c.ExecPrepared(s.serverID)
	}
	q, err := interpolate(s.query, args)
	if err != nil {
		return nil, nil, err
	}
	return s.cn.c.Exec(q)
}

func (s *stmt) Exec(args []driver.Value) (driver.Result, error) {
	h, _, err := s.run(args)
	if err != nil {
		return nil, err
	}
	return result{rowsAffected: h.RowsAffected}, nil
}

func (s *stmt) Query(args []driver.Value) (driver.Rows, error) {
	h, rs, err := s.run(args)
	if err != nil {
		return nil, err
	}
	return &rows{header: h, rows: rs}, nil
}

// result implements driver.Result. LastInsertId is not a concept the
// engine has.
type result struct{ rowsAffected int64 }

func (result) LastInsertId() (int64, error) {
	return 0, errors.New("hybridsql: LastInsertId is not supported")
}
func (r result) RowsAffected() (int64, error) { return r.rowsAffected, nil }

// rows implements driver.Rows over a fully-fetched result set.
type rows struct {
	header *wire.ResultHeader
	rows   []value.Row
	pos    int
}

func (r *rows) Columns() []string {
	out := make([]string, len(r.header.Columns))
	for i, c := range r.header.Columns {
		out[i] = c.Name
	}
	return out
}

// ColumnTypeDatabaseTypeName reports the advisory column kind from the
// result header (BIGINT, DOUBLE, VARCHAR, BOOLEAN, DATE, or NULL).
func (r *rows) ColumnTypeDatabaseTypeName(i int) string {
	return r.header.Columns[i].Kind.String()
}

func (r *rows) Close() error { r.rows = nil; return nil }

func (r *rows) Next(dest []driver.Value) error {
	if r.pos >= len(r.rows) {
		return io.EOF
	}
	row := r.rows[r.pos]
	r.pos++
	for i := range dest {
		if i >= len(row) {
			dest[i] = nil
			continue
		}
		dest[i] = toDriverValue(row[i])
	}
	return nil
}

// toDriverValue maps a wire value onto database/sql's restricted value
// set: int64, float64, string, bool, time.Time, or nil. Dates become
// UTC midnight time.Time.
func toDriverValue(v value.Value) driver.Value {
	switch v.Kind() {
	case value.KindNull:
		return nil
	case value.KindInt:
		return v.Int()
	case value.KindFloat:
		return v.Float()
	case value.KindString:
		return v.Str()
	case value.KindBool:
		return v.Bool()
	case value.KindDate:
		return time.Unix(v.Int()*86400, 0).UTC()
	default:
		return v.String()
	}
}

// placeholders returns the byte offsets of the '?' markers the engine's
// lexer reads as SQL: those outside single-quoted strings (a doubled
// quote inside one escapes it) and -- line comments.
func placeholders(query string) []int {
	var at []int
	for i := 0; i < len(query); i++ {
		switch {
		case query[i] == '\'':
			for i++; i < len(query); i++ {
				if query[i] == '\'' {
					if i+1 < len(query) && query[i+1] == '\'' {
						i++ // escaped quote
						continue
					}
					break
				}
			}
		case query[i] == '-' && i+1 < len(query) && query[i+1] == '-':
			for i < len(query) && query[i] != '\n' {
				i++
			}
		case query[i] == '?':
			at = append(at, i)
		}
	}
	return at
}

// countPlaceholders counts the '?' markers placeholders finds.
func countPlaceholders(query string) int { return len(placeholders(query)) }

// interpolate substitutes args for the '?' markers placeholders finds,
// as SQL literals.
func interpolate(query string, args []driver.Value) (string, error) {
	at := placeholders(query)
	if len(args) != len(at) {
		return "", fmt.Errorf("hybridsql: %d arguments for %d placeholders", len(args), len(at))
	}
	var b strings.Builder
	b.Grow(len(query) + 16*len(args))
	prev := 0
	for k, i := range at {
		lit, err := literal(args[k])
		if err != nil {
			return "", err
		}
		b.WriteString(query[prev:i])
		b.WriteString(lit)
		prev = i + 1
	}
	b.WriteString(query[prev:])
	return b.String(), nil
}

// literal renders one driver.Value as a SQL literal in the engine's
// dialect.
func literal(v driver.Value) (string, error) {
	switch x := v.(type) {
	case nil:
		return "NULL", nil
	case int64:
		return strconv.FormatInt(x, 10), nil
	case float64:
		s := strconv.FormatFloat(x, 'g', -1, 64)
		// Keep a float literal shaped like one (the lexer types by shape).
		if !strings.ContainsAny(s, ".eE") {
			s += ".0"
		}
		return s, nil
	case bool:
		if x {
			return "TRUE", nil
		}
		return "FALSE", nil
	case string:
		return "'" + strings.ReplaceAll(x, "'", "''") + "'", nil
	case []byte:
		return "'" + strings.ReplaceAll(string(x), "'", "''") + "'", nil
	case time.Time:
		return "DATE '" + x.UTC().Format("2006-01-02") + "'", nil
	default:
		return "", fmt.Errorf("hybridsql: unsupported argument type %T", v)
	}
}
