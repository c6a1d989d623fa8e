package sql

import (
	"fmt"
	"testing"
)

// An equi-join and = agree across INT and FLOAT: the hash join buckets
// numbers by value, not by typed key.
func TestEquiJoinAcrossIntAndFloat(t *testing.T) {
	ex, _ := newTestExec(t)
	mustExec(t, ex,
		"CREATE TABLE a (n INT)", "CREATE TABLE b (f FLOAT)",
		"INSERT INTO a VALUES (1), (2)", "INSERT INTO b VALUES (1.0), (2.5)",
	)
	for _, q := range []string{
		"SELECT a.n FROM a JOIN b ON a.n = b.f",
		"SELECT a.n FROM a, b WHERE a.n = b.f",
		"SELECT a.n FROM b JOIN a ON a.n = b.f",
	} {
		if res := query(t, ex, q); len(res.Rows) != 1 || res.Rows[0][0].I != 1 {
			t.Errorf("%s: rows %v, want the single 1", q, res.Rows)
		}
	}
	if res := query(t, ex, "SELECT f FROM b WHERE f = 1"); len(res.Rows) != 1 || res.Rows[0][0].F != 1 {
		t.Errorf("f = 1: rows %v, want the single 1.0", res.Rows)
	}
}

// A statement that fails changes nothing: every row is decided — the WHERE,
// the SET values, the coercions — before the first one is changed, so the rows
// and the table's version are those from before it.
func TestFailedStatementChangesNothing(t *testing.T) {
	for _, stmt := range []string{
		"DELETE FROM t WHERE 10 / a > 1",
		"UPDATE t SET b = 'z' WHERE 10 / a > 1",
		"UPDATE t SET b = 'z', a = 10 / a",
		"UPDATE t SET a = CASE WHEN a = 1 THEN 2 ELSE 'notanint' END",
		"INSERT INTO t VALUES (5, 'p'), ('notanint', 'q')",
		"INSERT INTO t VALUES (5, 'p'), (10 / 0, 'q')",
	} {
		ex, _ := newTestExec(t)
		mustExec(t, ex, "CREATE TABLE t (a INT, b TEXT)", "INSERT INTO t VALUES (1, 'x'), (0, 'y')")
		tab, err := ex.catalog.Get("t")
		if err != nil {
			t.Fatal(err)
		}
		rows, version := fmt.Sprint(query(t, ex, "SELECT a, b FROM t").Rows), tab.Version()
		if _, err := ex.Exec(stmt); err == nil {
			t.Fatalf("%s: no error", stmt)
		}
		if got := fmt.Sprint(query(t, ex, "SELECT a, b FROM t").Rows); got != rows || tab.Version() != version {
			t.Errorf("%s failed but left rows %s at version %d; want %s at %d", stmt, got, tab.Version(), rows, version)
		}
	}
}
