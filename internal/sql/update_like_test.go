package sql

import "testing"

func TestUpdateBasic(t *testing.T) {
	ex, _ := newTestExec(t)
	seedPrograms(t, ex)
	res := query(t, ex, "UPDATE programs SET rating = rating + 1 WHERE year = 2007")
	if res.Rows[0][0].I != 2 {
		t.Fatalf("updated = %v", res.Rows[0][0])
	}
	v := query(t, ex, "SELECT rating FROM programs WHERE id = 'p2'")
	if v.Rows[0][0].F != 9.0 {
		t.Fatalf("rating = %v", v.Rows[0][0])
	}
	// Untouched rows keep their values.
	v = query(t, ex, "SELECT rating FROM programs WHERE id = 'p4'")
	if v.Rows[0][0].F != 9.5 {
		t.Fatalf("rating = %v", v.Rows[0][0])
	}
}

func TestUpdateAllRowsAndMultipleColumns(t *testing.T) {
	ex, _ := newTestExec(t)
	mustExec(t, ex, "CREATE TABLE t (a INT, b INT)", "INSERT INTO t VALUES (1, 10), (2, 20)")
	query(t, ex, "UPDATE t SET a = b, b = a") // swap: RHS uses pre-update row
	res := query(t, ex, "SELECT a, b FROM t ORDER BY a")
	if res.Rows[0][0].I != 10 || res.Rows[0][1].I != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[1][0].I != 20 || res.Rows[1][1].I != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestUpdateMaintainsIndex(t *testing.T) {
	ex, _ := newTestExec(t)
	mustExec(t, ex,
		"CREATE TABLE t (k TEXT, v INT)",
		"CREATE INDEX ON t (k)",
		"INSERT INTO t VALUES ('a', 1), ('b', 2)",
	)
	query(t, ex, "UPDATE t SET k = 'c' WHERE k = 'a'")
	res := query(t, ex, "SELECT v FROM t WHERE k = 'c'")
	if len(res.Rows) != 1 || res.Rows[0][0].I != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	res = query(t, ex, "SELECT v FROM t WHERE k = 'a'")
	if len(res.Rows) != 0 {
		t.Fatalf("stale index: %v", res.Rows)
	}
}

func TestUpdateErrors(t *testing.T) {
	ex, _ := newTestExec(t)
	seedPrograms(t, ex)
	if _, err := ex.Exec("UPDATE nope SET a = 1"); err == nil {
		t.Fatal("unknown table accepted")
	}
	if _, err := ex.Exec("UPDATE programs SET nope = 1"); err == nil {
		t.Fatal("unknown column accepted")
	}
	if _, err := ex.Exec("UPDATE programs SET name = 5"); err == nil {
		t.Fatal("type-mismatched update accepted")
	}
	if _, err := ex.Exec("UPDATE programs SET year = year WHERE name + 1 = 2"); err == nil {
		t.Fatal("bad WHERE accepted")
	}
}

// TestLikeOperator: there is no LIKE, and the keyword is never an alias.
func TestLikeOperator(t *testing.T) {
	mustNotParse(t,
		"SELECT name FROM programs WHERE name LIKE '%news%'",
		"SELECT COUNT(*) FROM programs WHERE name NOT LIKE '%news%'",
		"SELECT name LIKE FROM programs")
}
