// Package engine wires the storage catalog, the SQL executor and the event
// space into a single embedded database handle — the stand-in for the
// paper's event-expression-extended PostgreSQL instance (§5).
package engine

import (
	"fmt"

	"repro/internal/event"
	"repro/internal/sql"
	"repro/internal/storage"
)

// DB is an embedded probabilistic relational database. Safe for concurrent
// use.
type DB struct {
	catalog *storage.Catalog
	space   *event.Space
	exec    *sql.Executor
}

// New creates an empty database with a fresh event space.
func New() *DB {
	catalog := storage.NewCatalog()
	space := event.NewSpace()
	return &DB{
		catalog: catalog,
		space:   space,
		exec:    sql.NewExecutor(catalog, &sql.Runtime{Space: space}),
	}
}

// Space returns the database's event space (for declaring basic events).
func (db *DB) Space() *event.Space { return db.space }

// Catalog returns the underlying table catalog.
func (db *DB) Catalog() *storage.Catalog { return db.catalog }

// Exec parses and executes one SQL statement.
func (db *DB) Exec(stmt string) (*sql.Result, error) { return db.exec.Exec(stmt) }

// MustExec executes a statement and panics on error; for schema setup whose
// statements are statically known.
func (db *DB) MustExec(stmt string) *sql.Result {
	res, err := db.exec.Exec(stmt)
	if err != nil {
		panic(fmt.Sprintf("engine: %v", err))
	}
	return res
}

// Query executes a statement and requires a result set.
func (db *DB) Query(stmt string) (*sql.Result, error) {
	res, err := db.exec.Exec(stmt)
	if err != nil {
		return nil, err
	}
	if res == nil {
		return nil, fmt.Errorf("engine: statement %q produced no rows", stmt)
	}
	return res, nil
}

// QueryStmt runs an already parsed SELECT: the path for callers that issue
// one statement shape many times and would otherwise pay the lexer and parser
// on every call. The statement is only read.
func (db *DB) QueryStmt(sel *sql.SelectStmt) (*sql.Result, error) { return db.exec.ExecStmt(sel) }

// RowsRead counts the base-table rows SELECTs have read, by full scan and
// through an index (see sql.Executor.RowsRead).
func (db *DB) RowsRead() (scan, index int64) { return db.exec.RowsRead() }

// QueryScalar executes a query expected to return exactly one value.
func (db *DB) QueryScalar(stmt string) (storage.Value, error) {
	res, err := db.Query(stmt)
	if err != nil {
		return storage.Value{}, err
	}
	if len(res.Rows) != 1 || len(res.Rows[0]) != 1 {
		return storage.Value{}, fmt.Errorf("engine: %q returned %dx%d, want 1x1", stmt, len(res.Rows), len(res.Cols))
	}
	return res.Rows[0][0], nil
}

// Redefinitions counts the DDL statements that dropped or redefined an
// existing table or view (see sql.Executor.Redefinitions): while it stands
// still, every name a past query resolved still means the same relation.
func (db *DB) Redefinitions() uint64 { return db.exec.Redefinitions() }

// HasView reports whether a view with this name exists.
func (db *DB) HasView(name string) bool { return db.exec.HasView(name) }

// HasTable reports whether a base table with this name exists.
func (db *DB) HasTable(name string) bool { return db.catalog.Exists(name) }

// ViewNames returns the sorted names of all registered views.
func (db *DB) ViewNames() []string { return db.exec.ViewNames() }

// TableNames returns the sorted names of all base tables.
func (db *DB) TableNames() []string { return db.catalog.Names() }

// InsertRow inserts a row of Go values into the named base table without
// going through the SQL parser; event expressions can be passed directly.
// Accepted Go types: int, int64, float64, string, bool, *event.Expr, nil and
// storage.Value.
func (db *DB) InsertRow(table string, vals ...interface{}) error {
	tab, err := db.catalog.Get(table)
	if err != nil {
		return err
	}
	row := make(storage.Row, len(vals))
	for i, v := range vals {
		sv, err := toValue(v)
		if err != nil {
			return fmt.Errorf("engine: %s column %d: %w", table, i, err)
		}
		row[i] = sv
	}
	return tab.Insert(row)
}

func toValue(v interface{}) (storage.Value, error) {
	switch v := v.(type) {
	case nil:
		return storage.Null(), nil
	case storage.Value:
		return v, nil
	case int:
		return storage.Int(int64(v)), nil
	case int64:
		return storage.Int(v), nil
	case float64:
		return storage.Float(v), nil
	case string:
		return storage.Text(v), nil
	case bool:
		return storage.Bool(v), nil
	case *event.Expr:
		return storage.Event(v), nil
	}
	return storage.Value{}, fmt.Errorf("unsupported Go value %T", v)
}
