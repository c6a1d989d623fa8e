package sql

import (
	"strings"
	"testing"
)

func TestViewCycleDetected(t *testing.T) {
	ex, _ := newTestExec(t)
	// Create v2 first referencing v1 (lazy resolution allows it), then v1
	// referencing v2 — querying either must fail with a depth error, not
	// hang.
	mustExec(t, ex,
		"CREATE TABLE seed (x INT)",
		"CREATE VIEW v1 AS SELECT x FROM v2",
		"CREATE VIEW v2 AS SELECT x FROM v1",
	)
	_, err := ex.Exec("SELECT x FROM v1")
	if err == nil || !strings.Contains(err.Error(), "nesting") {
		t.Fatalf("cycle not detected: %v", err)
	}
}

func TestDeepViewChain(t *testing.T) {
	ex, _ := newTestExec(t)
	mustExec(t, ex, "CREATE TABLE base (x INT)", "INSERT INTO base VALUES (1), (2)")
	prev := "base"
	for i := 0; i < 20; i++ {
		name := "lvl" + string(rune('a'+i))
		mustExec(t, ex, "CREATE VIEW "+name+" AS SELECT x FROM "+prev)
		prev = name
	}
	res := query(t, ex, "SELECT COUNT(*) FROM "+prev)
	if res.Rows[0][0].I != 2 {
		t.Fatalf("count = %v", res.Rows[0][0])
	}
}

func TestOrderByNullsFirst(t *testing.T) {
	ex, _ := newTestExec(t)
	mustExec(t, ex, "CREATE TABLE t (x INT)", "INSERT INTO t VALUES (2), (NULL), (1)")
	res := query(t, ex, "SELECT x FROM t ORDER BY x")
	if !res.Rows[0][0].IsNull() || res.Rows[1][0].I != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	// DESC puts NULL last (reverse of the total order).
	res = query(t, ex, "SELECT x FROM t ORDER BY x DESC")
	if !res.Rows[2][0].IsNull() || res.Rows[0][0].I != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestOrderByMultipleKeysMixedDirections(t *testing.T) {
	ex, _ := newTestExec(t)
	mustExec(t, ex,
		"CREATE TABLE t (a INT, b INT)",
		"INSERT INTO t VALUES (1, 1), (1, 2), (2, 1), (2, 2)",
	)
	res := query(t, ex, "SELECT a, b FROM t ORDER BY a ASC, b DESC")
	want := [][2]int64{{1, 2}, {1, 1}, {2, 2}, {2, 1}}
	for i, w := range want {
		if res.Rows[i][0].I != w[0] || res.Rows[i][1].I != w[1] {
			t.Fatalf("row %d = %v, want %v", i, res.Rows[i], w)
		}
	}
}

func TestStableSortPreservesInsertionOnTies(t *testing.T) {
	ex, _ := newTestExec(t)
	mustExec(t, ex,
		"CREATE TABLE t (k INT, tag TEXT)",
		"INSERT INTO t VALUES (1, 'first'), (1, 'second'), (1, 'third')",
	)
	res := query(t, ex, "SELECT tag FROM t ORDER BY k")
	if res.Rows[0][0].S != "first" || res.Rows[2][0].S != "third" {
		t.Fatalf("tie order not stable: %v", res.Rows)
	}
}

func TestGroupByExpression(t *testing.T) {
	ex, _ := newTestExec(t)
	mustExec(t, ex, "CREATE TABLE t (x INT)", "INSERT INTO t VALUES (1), (2), (3), (4)")
	res := query(t, ex, "SELECT x / 3 AS third, COUNT(*) AS n FROM t GROUP BY x / 3 ORDER BY third")
	if len(res.Rows) != 2 || res.Rows[0][1].I != 2 || res.Rows[1][1].I != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestUnionAllChain(t *testing.T) {
	ex, _ := newTestExec(t)
	mustExec(t, ex, "CREATE TABLE t (x INT)", "INSERT INTO t VALUES (1)")
	res := query(t, ex, "SELECT x FROM t UNION ALL SELECT x FROM t UNION ALL SELECT x FROM t")
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestSelfJoinWithAliases(t *testing.T) {
	ex, _ := newTestExec(t)
	mustExec(t, ex,
		"CREATE TABLE edge (src TEXT, dst TEXT)",
		"INSERT INTO edge VALUES ('a', 'b'), ('b', 'c'), ('c', 'd')",
	)
	// Two-hop paths via self join.
	res := query(t, ex, `SELECT e1.src, e2.dst FROM edge e1 JOIN edge e2 ON e1.dst = e2.src ORDER BY e1.src`)
	if len(res.Rows) != 2 || res.Rows[0][0].S != "a" || res.Rows[0][1].S != "c" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestLimitZeroAndBeyondRowCount(t *testing.T) {
	ex, _ := newTestExec(t)
	mustExec(t, ex, "CREATE TABLE t (x INT)", "INSERT INTO t VALUES (1), (2)")
	res := query(t, ex, "SELECT x FROM t LIMIT 0")
	if len(res.Rows) != 0 {
		t.Fatalf("rows = %v", res.Rows)
	}
	res = query(t, ex, "SELECT x FROM t LIMIT 100")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestWhereOnJoinedViewWithEvents(t *testing.T) {
	ex, space := newTestExec(t)
	space.Declare("e", 0.4)
	mustExec(t, ex,
		"CREATE TABLE c (id TEXT, ev EVENT)",
		"INSERT INTO c VALUES ('x', EV_BASIC('e')), ('y', EV_TRUE())",
		"CREATE VIEW probs AS SELECT id, PROB(ev) AS p FROM c",
	)
	res := query(t, ex, "SELECT id FROM probs WHERE p > 0.5")
	if len(res.Rows) != 1 || res.Rows[0][0].S != "y" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestDistinctOnExpressions(t *testing.T) {
	ex, _ := newTestExec(t)
	mustExec(t, ex, "CREATE TABLE t (x INT)", "INSERT INTO t VALUES (1), (2), (3), (4)")
	res := query(t, ex, "SELECT DISTINCT x / 3 FROM t")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestCaseWithoutElseYieldsNull(t *testing.T) {
	mustNotParse(t, "SELECT CASE WHEN FALSE THEN 1 END", "SELECT CASE WHEN FALSE THEN 1 ELSE 2 END")
}

// TestCoalesceOverLeftJoin: there is no COALESCE; a LEFT JOIN miss reads as
// NULL, which IS NULL tests and the EV_* builtins read as the impossible
// event.
func TestCoalesceOverLeftJoin(t *testing.T) {
	mustNotParse(t, "SELECT COALESCE(v, 0) FROM b")
	ex, _ := newTestExec(t)
	mustExec(t, ex,
		"CREATE TABLE a (id TEXT)", "INSERT INTO a VALUES ('x'), ('y')",
		"CREATE TABLE b (id TEXT, v INT, ev EVENT)", "INSERT INTO b VALUES ('x', 7, EV_TRUE())",
	)
	res := query(t, ex, `SELECT a.id, b.v, b.v IS NULL AS miss, PROB(EV_NOT(b.ev)) AS p FROM a LEFT JOIN b ON a.id = b.id ORDER BY a.id`)
	if r := res.Rows[0]; r[1].I != 7 || r[2].B || r[3].F != 0 {
		t.Fatalf("hit row = %v", r)
	}
	if r := res.Rows[1]; !r[1].IsNull() || !r[2].B || r[3].F != 1 {
		t.Fatalf("miss row = %v", r)
	}
}

// TestHavingWithoutGroupBy: a global aggregate is filtered by a WHERE over
// it as a subquery, not by HAVING.
func TestHavingWithoutGroupBy(t *testing.T) {
	mustNotParse(t, "SELECT SUM(x) FROM t HAVING SUM(x) > 2")
	ex, _ := newTestExec(t)
	mustExec(t, ex, "CREATE TABLE t (x INT)", "INSERT INTO t VALUES (1), (2)")
	res := query(t, ex, "SELECT s FROM (SELECT SUM(x) AS s FROM t) g WHERE s > 2")
	if len(res.Rows) != 1 || res.Rows[0][0].I != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
	res = query(t, ex, "SELECT s FROM (SELECT SUM(x) AS s FROM t) g WHERE s > 10")
	if len(res.Rows) != 0 {
		t.Fatalf("rows = %v", res.Rows)
	}
}
