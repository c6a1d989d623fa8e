package sql

import (
	"strings"
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
	// And through the index, once the probe is coerced to the column's type.
	mustExec(t, ex, "CREATE INDEX ON b (f)", "CREATE INDEX ON a (n)")
	for _, q := range []string{
		"SELECT f FROM b WHERE f = 1",
		"SELECT f FROM b WHERE f IN (1, 7)",
		"SELECT a.n FROM a JOIN b ON a.n = b.f WHERE a.n = 1.0",
	} {
		if res := query(t, ex, q); len(res.Rows) != 1 {
			t.Errorf("%s: rows %v, want one", q, res.Rows)
		}
	}
}

// rowsRead runs the query and returns its result with the base-table rows it
// read by scan and through an index.
func rowsRead(t *testing.T, ex *Executor, q string) (res *Result, scan, index int64) {
	t.Helper()
	s0, i0 := ex.RowsRead()
	res = query(t, ex, q)
	s1, i1 := ex.RowsRead()
	return res, s1 - s0, i1 - i0
}

// The access paths by row count: what a predicate lets each FROM item skip.
func TestAccessPathsByRowsRead(t *testing.T) {
	ex, _ := newTestExec(t)
	mustExec(t, ex,
		"CREATE TABLE prog (id TEXT, year INT)", "CREATE INDEX ON prog (id)",
		"CREATE TABLE genre (pid TEXT, name TEXT)", "CREATE INDEX ON genre (pid)", "CREATE INDEX ON genre (name)",
		"CREATE TABLE dom (id TEXT)", "CREATE INDEX ON dom (id)",
		"CREATE TABLE neg (id TEXT, n INT)", "CREATE INDEX ON neg (n)", "INSERT INTO neg VALUES ('a', 2), ('b', -2)",
	)
	for i := 0; i < 40; i++ {
		id := "p" + string(rune('A'+i))
		mustExec(t, ex,
			"INSERT INTO prog VALUES ('"+id+"', "+[]string{"2006", "2007"}[i%2]+")",
			"INSERT INTO dom VALUES ('"+id+"')",
			"INSERT INTO genre VALUES ('"+id+"', '"+[]string{"news", "comedy", "drama", "sport"}[i%4]+"')",
		)
	}
	mustExec(t, ex,
		"INSERT INTO genre VALUES ('pA', 'drama')",
		"CREATE VIEW tagged AS SELECT g.pid AS id, COUNT(*) AS tags FROM genre g JOIN prog p ON g.pid = p.id GROUP BY g.pid",
		"CREATE VIEW untagged AS SELECT d.id AS id, t.tags AS tags FROM dom d LEFT JOIN tagged t ON d.id = t.id",
		"CREATE VIEW either AS SELECT u.id AS id, COUNT(*) AS n FROM (SELECT id FROM prog UNION ALL SELECT pid AS id FROM genre) u GROUP BY u.id",
		"CREATE VIEW firstTwo AS SELECT id FROM prog LIMIT 2",
	)
	for _, c := range []struct {
		q               string
		rows            int
		maxScan, maxIdx int64
	}{
		// A point predicate and an IN list on an indexed column.
		{"SELECT year FROM prog WHERE id = 'pC'", 1, 0, 1},
		{"SELECT year FROM prog WHERE id IN ('pC', 'pD', 'nope', NULL)", 2, 0, 2},
		{"SELECT year FROM prog WHERE 'pC' = id AND year > 0", 1, 0, 1},
		{"SELECT id FROM neg WHERE n = -2", 1, 0, 1},
		// No index on the column, a disjunction, a range: the scan stays.
		{"SELECT id FROM prog WHERE year = 2006", 20, 40, 0},
		{"SELECT id FROM prog WHERE id = 'pC' OR id = 'pD'", 2, 40, 0},
		// Through a view, an aggregate's GROUP BY key and the ON closure: two
		// genre rows and one program row for pA.
		{"SELECT tags FROM tagged WHERE id = 'pA'", 1, 0, 3},
		// Through a LEFT JOIN onto both of its sides.
		{"SELECT tags FROM untagged WHERE id = 'pA'", 1, 0, 4},
		// Not onto a non-key output of an aggregate.
		{"SELECT id FROM tagged WHERE tags = 2", 1, 81, 0},
		// Into both branches of a UNION ALL under a GROUP BY.
		{"SELECT n FROM either WHERE id = 'pA'", 1, 0, 3},
		// Not through a LIMIT.
		{"SELECT id FROM firstTwo WHERE id = 'pB'", 1, 40, 0},
		// Sideways: the small side's join values fetch the big side's rows —
		// the ten sport rows, then their ten programs.
		{"SELECT p.year FROM prog p JOIN genre g ON p.id = g.pid WHERE g.name = 'sport'", 10, 0, 20},
		// A literal the column cannot be compared with is not pushed: the
		// scan and its error stay (checked below); NULL matches nothing.
		{"SELECT year FROM prog WHERE id = NULL", 0, 0, 0},
	} {
		res, scan, idx := rowsRead(t, ex, c.q)
		if len(res.Rows) != c.rows {
			t.Errorf("%s: %d rows, want %d", c.q, len(res.Rows), c.rows)
		}
		if scan > c.maxScan || idx > c.maxIdx || (c.maxIdx > 0 && idx == 0) {
			t.Errorf("%s: read %d rows by scan and %d by index, want at most %d and %d", c.q, scan, idx, c.maxScan, c.maxIdx)
		}
	}
	if _, err := ex.Exec("SELECT year FROM prog WHERE id = 1"); err == nil || !strings.Contains(err.Error(), "cannot compare") {
		t.Errorf("id = 1 on a TEXT column: err %v, want the comparison error of the scan", err)
	}
	// The preserved side of a LEFT JOIN is not narrowed from its right side:
	// every dom row is read and survives.
	res, scan, _ := rowsRead(t, ex, "SELECT d.id FROM dom d LEFT JOIN prog p ON d.id = p.id AND p.year = 2006")
	if len(res.Rows) != 40 || scan < 40 {
		t.Errorf("LEFT JOIN: %d rows, %d scanned; want all 40 dom rows", len(res.Rows), scan)
	}
}
