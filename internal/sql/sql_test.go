package sql

import (
	"math"
	"strings"
	"testing"

	"repro/internal/event"
	"repro/internal/storage"
)

// newTestExec builds an executor with a fresh catalog and event space.
func newTestExec(t *testing.T) (*Executor, *event.Space) {
	t.Helper()
	space := event.NewSpace()
	return NewExecutor(storage.NewCatalog(), &Runtime{Space: space}), space
}

func mustExec(t *testing.T, ex *Executor, stmts ...string) {
	t.Helper()
	for _, s := range stmts {
		if _, err := ex.Exec(s); err != nil {
			t.Fatalf("exec %q: %v", s, err)
		}
	}
}

func query(t *testing.T, ex *Executor, q string) *Result {
	t.Helper()
	res, err := ex.Exec(q)
	if err != nil {
		t.Fatalf("query %q: %v", q, err)
	}
	if res == nil {
		t.Fatalf("query %q returned no result", q)
	}
	return res
}

// mustNotParse fails the test for each statement Parse accepts.
func mustNotParse(t *testing.T, stmts ...string) {
	t.Helper()
	for _, s := range stmts {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) succeeded, want a parse error", s)
		}
	}
}

func seedPrograms(t *testing.T, ex *Executor) {
	t.Helper()
	mustExec(t, ex,
		"CREATE TABLE programs (id TEXT, name TEXT, year INT, rating FLOAT)",
		"INSERT INTO programs VALUES ('p1', 'Oprah', 2006, 6.5), ('p2', 'BBC news', 2007, 8.0), ('p3', 'Channel 5 news', 2007, 7.0), ('p4', 'MPFS', 1970, 9.5)",
		"CREATE TABLE genres (pid TEXT, genre TEXT)",
		"INSERT INTO genres VALUES ('p1', 'human-interest'), ('p3', 'human-interest'), ('p4', 'comedy')",
	)
}

func TestCreateInsertSelect(t *testing.T) {
	ex, _ := newTestExec(t)
	seedPrograms(t, ex)
	res := query(t, ex, "SELECT name FROM programs WHERE year = 2007 ORDER BY name")
	if len(res.Rows) != 2 || res.Rows[0][0].S != "BBC news" || res.Rows[1][0].S != "Channel 5 news" {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Cols[0] != "name" {
		t.Fatalf("cols = %v", res.Cols)
	}
}

// TestSelectStar: a select list names its columns; * and alias.* are not in
// the dialect. COUNT(*) is.
func TestSelectStar(t *testing.T) {
	mustNotParse(t, "SELECT * FROM programs", "SELECT p.* FROM programs p", "SELECT id, * FROM programs")
	ex, _ := newTestExec(t)
	seedPrograms(t, ex)
	if res := query(t, ex, "SELECT COUNT(*) FROM programs"); res.Rows[0][0].I != 4 {
		t.Fatalf("count = %v", res.Rows[0][0])
	}
}

func TestProjectionExpressionsAndAliases(t *testing.T) {
	ex, _ := newTestExec(t)
	seedPrograms(t, ex)
	res := query(t, ex, "SELECT name, rating * 10 AS pct, year + -2000 delta FROM programs WHERE id = 'p2'")
	if res.Cols[1] != "pct" || res.Cols[2] != "delta" {
		t.Fatalf("cols = %v", res.Cols)
	}
	if res.Rows[0][1].F != 80 || res.Rows[0][2].I != 7 {
		t.Fatalf("row = %v", res.Rows[0])
	}
}

func TestOrderByDescAndLimit(t *testing.T) {
	ex, _ := newTestExec(t)
	seedPrograms(t, ex)
	res := query(t, ex, "SELECT name FROM programs ORDER BY rating DESC LIMIT 2")
	if len(res.Rows) != 2 || res.Rows[0][0].S != "MPFS" || res.Rows[1][0].S != "BBC news" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestOrderByOutputAlias(t *testing.T) {
	ex, _ := newTestExec(t)
	seedPrograms(t, ex)
	res := query(t, ex, "SELECT name, rating * 2 AS s FROM programs ORDER BY s DESC LIMIT 1")
	if res.Rows[0][0].S != "MPFS" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestInnerJoin(t *testing.T) {
	ex, _ := newTestExec(t)
	seedPrograms(t, ex)
	res := query(t, ex, `SELECT p.name, g.genre FROM programs p JOIN genres g ON p.id = g.pid ORDER BY p.name`)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][0].S != "Channel 5 news" || res.Rows[0][1].S != "human-interest" {
		t.Fatalf("first row = %v", res.Rows[0])
	}
}

func TestLeftJoinPadsNulls(t *testing.T) {
	ex, _ := newTestExec(t)
	seedPrograms(t, ex)
	res := query(t, ex, `SELECT p.name, g.genre FROM programs p LEFT JOIN genres g ON p.id = g.pid ORDER BY p.name`)
	if len(res.Rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(res.Rows))
	}
	// BBC news has no genre: NULL.
	if res.Rows[0][0].S != "BBC news" || !res.Rows[0][1].IsNull() {
		t.Fatalf("row = %v", res.Rows[0])
	}
}

func TestJoinReversedOrientationAndResidual(t *testing.T) {
	ex, _ := newTestExec(t)
	seedPrograms(t, ex)
	// ON g.pid = p.id (reversed) plus residual condition.
	res := query(t, ex, `SELECT p.name FROM programs p JOIN genres g ON g.pid = p.id AND g.genre = 'comedy'`)
	if len(res.Rows) != 1 || res.Rows[0][0].S != "MPFS" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

// TestCrossJoinComma: a FROM list has no commas; the cross product is
// JOIN … ON TRUE.
func TestCrossJoinComma(t *testing.T) {
	mustNotParse(t, "SELECT x, y FROM a, b", "SELECT x FROM (SELECT x FROM a, b) s")
	ex, _ := newTestExec(t)
	mustExec(t, ex,
		"CREATE TABLE a (x INT)", "INSERT INTO a VALUES (1), (2)",
		"CREATE TABLE b (y INT)", "INSERT INTO b VALUES (10), (20), (30)",
	)
	res := query(t, ex, "SELECT x, y FROM a JOIN b ON TRUE")
	if len(res.Rows) != 6 {
		t.Fatalf("got %d rows, want 6", len(res.Rows))
	}
	res = query(t, ex, "SELECT x, y FROM a JOIN b ON TRUE WHERE x = 1 AND y > 10 ORDER BY y")
	if len(res.Rows) != 2 || res.Rows[0][1].I != 20 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestNestedLoopJoinNonEqui(t *testing.T) {
	ex, _ := newTestExec(t)
	mustExec(t, ex,
		"CREATE TABLE a (x INT)", "INSERT INTO a VALUES (1), (2), (3)",
		"CREATE TABLE b (y INT)", "INSERT INTO b VALUES (2), (3)",
	)
	res := query(t, ex, "SELECT x, y FROM a JOIN b ON x < y ORDER BY x, y")
	if len(res.Rows) != 3 { // (1,2) (1,3) (2,3)
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestGroupByAggregates(t *testing.T) {
	ex, _ := newTestExec(t)
	seedPrograms(t, ex)
	res := query(t, ex, `SELECT year, COUNT(*) AS n, SUM(rating) AS total FROM programs GROUP BY year ORDER BY year`)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
	// year 2007: two programs, ratings summing to 15.
	last := res.Rows[2]
	if last[0].I != 2007 || last[1].I != 2 || math.Abs(last[2].F-15) > 1e-9 {
		t.Fatalf("2007 row = %v", last)
	}
}

func TestGlobalAggregateOnEmptyTable(t *testing.T) {
	ex, _ := newTestExec(t)
	mustExec(t, ex, "CREATE TABLE empty (x INT)")
	res := query(t, ex, "SELECT COUNT(*) AS n, SUM(x) AS s FROM empty")
	if len(res.Rows) != 1 || res.Rows[0][0].I != 0 || !res.Rows[0][1].IsNull() {
		t.Fatalf("rows = %v", res.Rows)
	}
}

// TestHaving: there is no HAVING, and the keyword is never an alias; a
// WHERE over the grouped subquery filters groups.
func TestHaving(t *testing.T) {
	mustNotParse(t, "SELECT year FROM programs GROUP BY year HAVING COUNT(*) > 1",
		"SELECT year FROM programs HAVING")
	ex, _ := newTestExec(t)
	seedPrograms(t, ex)
	res := query(t, ex, `SELECT year FROM (SELECT year, COUNT(*) AS n FROM programs GROUP BY year) g WHERE n > 1`)
	if len(res.Rows) != 1 || res.Rows[0][0].I != 2007 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

// TestMinMaxSum: SUM is an aggregate of the dialect, MIN and MAX are not.
func TestMinMaxSum(t *testing.T) {
	mustNotParse(t, "SELECT MIN(year) FROM programs", "SELECT MAX(year) FROM programs", "SELECT AVG(year) FROM programs")
	ex, _ := newTestExec(t)
	seedPrograms(t, ex)
	res := query(t, ex, "SELECT SUM(year) FROM programs")
	if r := res.Rows[0]; r[0].I != 1970+2006+2007+2007 {
		t.Fatalf("row = %v", r)
	}
}

func TestCountColumnSkipsNulls(t *testing.T) {
	ex, _ := newTestExec(t)
	mustExec(t, ex,
		"CREATE TABLE t (x INT)",
		"INSERT INTO t VALUES (1), (NULL), (3)",
	)
	res := query(t, ex, "SELECT COUNT(x), COUNT(*) FROM t")
	if res.Rows[0][0].I != 2 || res.Rows[0][1].I != 3 {
		t.Fatalf("row = %v", res.Rows[0])
	}
}

func TestDistinct(t *testing.T) {
	ex, _ := newTestExec(t)
	seedPrograms(t, ex)
	res := query(t, ex, "SELECT DISTINCT genre FROM genres ORDER BY genre")
	if len(res.Rows) != 2 || res.Rows[0][0].S != "comedy" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestUnionAll(t *testing.T) {
	ex, _ := newTestExec(t)
	seedPrograms(t, ex)
	res := query(t, ex, "SELECT id FROM programs WHERE year = 1970 UNION ALL SELECT pid FROM genres WHERE genre = 'comedy'")
	if len(res.Rows) != 2 || res.Rows[0][0].S != "p4" || res.Rows[1][0].S != "p4" {
		t.Fatalf("rows = %v", res.Rows)
	}
	if _, err := ex.Exec("SELECT id, name FROM programs UNION ALL SELECT id FROM programs"); err == nil {
		t.Fatal("mismatched UNION arity accepted")
	}
}

func TestViews(t *testing.T) {
	ex, _ := newTestExec(t)
	seedPrograms(t, ex)
	mustExec(t, ex, "CREATE VIEW recent AS SELECT id, name FROM programs WHERE year >= 2006")
	res := query(t, ex, "SELECT name FROM recent ORDER BY name")
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
	// Views compose: a view over a view, joined to a table.
	mustExec(t, ex, "CREATE VIEW recent_hi AS SELECT r.id FROM recent r JOIN genres g ON r.id = g.pid WHERE g.genre = 'human-interest'")
	res = query(t, ex, "SELECT id FROM recent_hi ORDER BY id")
	if len(res.Rows) != 2 || res.Rows[0][0].S != "p1" {
		t.Fatalf("rows = %v", res.Rows)
	}
	// OR REPLACE.
	mustExec(t, ex, "CREATE OR REPLACE VIEW recent AS SELECT id, name FROM programs WHERE year >= 2007")
	res = query(t, ex, "SELECT name FROM recent")
	if len(res.Rows) != 2 {
		t.Fatalf("rows after replace = %v", res.Rows)
	}
	if _, err := ex.Exec("CREATE VIEW recent AS SELECT id FROM programs"); err == nil {
		t.Fatal("duplicate view accepted without OR REPLACE")
	}
	mustExec(t, ex, "DROP VIEW recent_hi")
	if _, err := ex.Exec("SELECT id FROM recent_hi"); err == nil {
		t.Fatal("dropped view still queryable")
	}
	mustExec(t, ex, "DROP VIEW IF EXISTS recent_hi")
}

func TestSubqueryInFrom(t *testing.T) {
	ex, _ := newTestExec(t)
	seedPrograms(t, ex)
	res := query(t, ex, `SELECT s.name FROM (SELECT name, rating FROM programs WHERE rating > 6.5) AS s ORDER BY s.rating DESC LIMIT 1`)
	if res.Rows[0][0].S != "MPFS" {
		t.Fatalf("rows = %v", res.Rows)
	}
	if _, err := ex.Exec("SELECT x FROM (SELECT 1 AS x)"); err == nil {
		t.Fatal("derived table without alias accepted")
	}
}

func TestThreeValuedLogic(t *testing.T) {
	ex, _ := newTestExec(t)
	mustExec(t, ex,
		"CREATE TABLE t (x INT)",
		"INSERT INTO t VALUES (1), (NULL)",
	)
	// NULL comparisons never match, and NULL AND TRUE is unknown.
	res := query(t, ex, "SELECT COUNT(*) FROM t WHERE x = x AND TRUE")
	if res.Rows[0][0].I != 1 {
		t.Fatalf("3VL filter kept %v rows", res.Rows[0][0])
	}
	res = query(t, ex, "SELECT COUNT(*) FROM t WHERE (x = 1 AND TRUE) IS NULL")
	if res.Rows[0][0].I != 1 {
		t.Fatalf("NULL AND TRUE count = %v", res.Rows[0][0])
	}
	res = query(t, ex, "SELECT COUNT(*) FROM t WHERE x IS NULL")
	if res.Rows[0][0].I != 1 {
		t.Fatalf("IS NULL count = %v", res.Rows[0][0])
	}
	res = query(t, ex, "SELECT COUNT(*) FROM t WHERE x IS NOT NULL")
	if res.Rows[0][0].I != 1 {
		t.Fatalf("IS NOT NULL count = %v", res.Rows[0][0])
	}
}

func TestInListSemantics(t *testing.T) {
	ex, _ := newTestExec(t)
	mustExec(t, ex, "CREATE TABLE t (x INT)", "INSERT INTO t VALUES (1), (2), (NULL)")
	res := query(t, ex, "SELECT COUNT(*) FROM t WHERE x IN (1, 3)")
	if res.Rows[0][0].I != 1 {
		t.Fatalf("IN count = %v", res.Rows[0][0])
	}
	res = query(t, ex, "SELECT COUNT(*) FROM t WHERE (x IN (1, 3)) = FALSE")
	if res.Rows[0][0].I != 1 {
		t.Fatalf("IN = FALSE count = %v", res.Rows[0][0])
	}
	mustNotParse(t, "SELECT COUNT(*) FROM t WHERE x NOT IN (1, 3)")
	// NULL in the list makes a non-matching IN unknown.
	res = query(t, ex, "SELECT COUNT(*) FROM t WHERE x IN (3, NULL)")
	if res.Rows[0][0].I != 0 {
		t.Fatalf("IN with NULL count = %v", res.Rows[0][0])
	}
}

// TestCaseExpr: there is no CASE, and none of its keywords is read as an
// alias or a column.
func TestCaseExpr(t *testing.T) {
	mustNotParse(t,
		"SELECT name, CASE WHEN rating >= 9 THEN 'great' ELSE 'ok' END AS verdict FROM programs",
		"SELECT name case FROM programs",
		"SELECT end FROM programs",
		"SELECT CASE(1)")
}

// TestScalarFunctions: the dialect's scalar builtins are the EVENT family;
// any other function name is a parse error.
func TestScalarFunctions(t *testing.T) {
	mustNotParse(t, "SELECT ABS(-3)", "SELECT LOWER('AbC')", "SELECT UPPER('x')",
		"SELECT LENGTH('abcd')", "SELECT COALESCE(NULL, 7)", "SELECT ROUND(3.14159, 2)")
	ex, _ := newTestExec(t)
	res := query(t, ex, "SELECT PROB(EV_TRUE()), PROB(EV_FALSE()), prob(ev_not(ev_false()))")
	if r := res.Rows[0]; r[0].F != 1 || r[1].F != 0 || r[2].F != 1 {
		t.Fatalf("row = %v", r)
	}
}

func TestArithmetic(t *testing.T) {
	ex, _ := newTestExec(t)
	res := query(t, ex, "SELECT 7 / 2, 7.0 / 2, 7 + -3, -(3 + 4) * 2")
	r := res.Rows[0]
	if r[0].I != 3 || r[1].F != 3.5 || r[2].I != 4 || r[3].I != -14 {
		t.Fatalf("row = %v", r)
	}
	mustNotParse(t, "SELECT 7 % 3", "SELECT 7 - 3")
	if _, err := ex.Exec("SELECT 1 / 0"); err == nil {
		t.Fatal("division by zero accepted")
	}
}

func TestDelete(t *testing.T) {
	ex, _ := newTestExec(t)
	seedPrograms(t, ex)
	res := query(t, ex, "DELETE FROM programs WHERE year < 2000")
	if res.Rows[0][0].I != 1 {
		t.Fatalf("deleted %v", res.Rows[0][0])
	}
	res = query(t, ex, "SELECT COUNT(*) FROM programs")
	if res.Rows[0][0].I != 3 {
		t.Fatalf("remaining = %v", res.Rows[0][0])
	}
}

func TestInsertWithColumnList(t *testing.T) {
	ex, _ := newTestExec(t)
	mustExec(t, ex,
		"CREATE TABLE t (a INT, b TEXT, c FLOAT)",
		"INSERT INTO t (b, a) VALUES ('x', 1)",
	)
	res := query(t, ex, "SELECT a, b, c FROM t")
	r := res.Rows[0]
	if r[0].I != 1 || r[1].S != "x" || !r[2].IsNull() {
		t.Fatalf("row = %v", r)
	}
	if _, err := ex.Exec("INSERT INTO t (a) VALUES (1, 2)"); err == nil {
		t.Fatal("value count mismatch accepted")
	}
	if _, err := ex.Exec("INSERT INTO t (nope) VALUES (1)"); err == nil {
		t.Fatal("unknown column accepted")
	}
}

func TestEventBuiltinsEndToEnd(t *testing.T) {
	ex, space := newTestExec(t)
	space.Declare("e1", 0.8)
	space.Declare("e2", 0.5)
	mustExec(t, ex,
		"CREATE TABLE c (id TEXT, ev EVENT)",
		"INSERT INTO c VALUES ('x', EV_BASIC('e1')), ('y', EV_BASIC('e2')), ('z', EV_AND(EV_BASIC('e1'), EV_BASIC('e2')))",
	)
	res := query(t, ex, "SELECT id, PROB(ev) AS p FROM c ORDER BY id")
	if math.Abs(res.Rows[0][1].F-0.8) > 1e-9 || math.Abs(res.Rows[2][1].F-0.4) > 1e-9 {
		t.Fatalf("rows = %v", res.Rows)
	}
	// Shared lineage handled exactly: e1 ∧ ¬e1 = 0.
	res = query(t, ex, "SELECT PROB(EV_AND(EV_BASIC('e1'), EV_NOT(EV_BASIC('e1'))))")
	if res.Rows[0][0].F != 0 {
		t.Fatalf("P(e1∧¬e1) = %v", res.Rows[0][0])
	}
	// NULL events behave as the impossible event.
	res = query(t, ex, "SELECT PROB(EV_OR(NULL, EV_BASIC('e1')))")
	if math.Abs(res.Rows[0][0].F-0.8) > 1e-9 {
		t.Fatalf("P(⊥∨e1) = %v", res.Rows[0][0])
	}
}

func TestEventAggregates(t *testing.T) {
	ex, space := newTestExec(t)
	space.Declare("e1", 0.5)
	space.Declare("e2", 0.5)
	mustExec(t, ex,
		"CREATE TABLE r (src TEXT, ev EVENT)",
		"INSERT INTO r VALUES ('a', EV_BASIC('e1')), ('a', EV_BASIC('e2')), ('b', EV_BASIC('e1'))",
	)
	res := query(t, ex, "SELECT src, PROB(EV_OR_AGG(ev)) AS p FROM r GROUP BY src ORDER BY src")
	if math.Abs(res.Rows[0][1].F-0.75) > 1e-9 { // P(e1∨e2) = 0.75
		t.Fatalf("rows = %v", res.Rows)
	}
	if math.Abs(res.Rows[1][1].F-0.5) > 1e-9 {
		t.Fatalf("rows = %v", res.Rows)
	}
	// Empty aggregation input.
	res = query(t, ex, "SELECT PROB(EV_OR_AGG(ev)), PROB(EV_AND_AGG(ev)) FROM r WHERE src = 'zzz'")
	if res.Rows[0][0].F != 0 || res.Rows[0][1].F != 1 {
		t.Fatalf("empty agg = %v", res.Rows[0])
	}
}

func TestIndexStatement(t *testing.T) {
	ex, _ := newTestExec(t)
	seedPrograms(t, ex)
	mustExec(t, ex, "CREATE INDEX ON programs (id)")
	res := query(t, ex, "SELECT name FROM programs WHERE id = 'p2'")
	if len(res.Rows) != 1 || res.Rows[0][0].S != "BBC news" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestAmbiguousColumn(t *testing.T) {
	ex, _ := newTestExec(t)
	mustExec(t, ex,
		"CREATE TABLE a (id INT)", "INSERT INTO a VALUES (1)",
		"CREATE TABLE b (id INT)", "INSERT INTO b VALUES (1)",
	)
	if _, err := ex.Exec("SELECT id FROM a JOIN b ON TRUE"); err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Fatalf("ambiguous column not rejected: %v", err)
	}
	res := query(t, ex, "SELECT a.id FROM a JOIN b ON TRUE")
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestErrorCases(t *testing.T) {
	ex, _ := newTestExec(t)
	seedPrograms(t, ex)
	bad := []string{
		"SELECT nope FROM programs",
		"SELECT x FROM nope",
		"SELECT name FROM programs WHERE name + 1 = 2", // type error
		"FROBNICATE",
		"SELECT FROM programs",
		"INSERT INTO nope VALUES (1)",
		"CREATE TABLE programs (x INT)", // duplicate
		"SELECT name FROM programs ORDER BY nope",
		"SELECT UNKNOWN_FUNC(1)",
		"SELECT name FROM programs LIMIT x",
	}
	for _, q := range bad {
		if _, err := ex.Exec(q); err == nil {
			t.Errorf("query %q succeeded, want error", q)
		}
	}
}

func TestStringEscapes(t *testing.T) {
	ex, _ := newTestExec(t)
	mustExec(t, ex, "CREATE TABLE t (s TEXT)", "INSERT INTO t VALUES ('it''s')")
	res := query(t, ex, "SELECT s FROM t")
	if res.Rows[0][0].S != "it's" {
		t.Fatalf("got %q", res.Rows[0][0].S)
	}
}

func TestComments(t *testing.T) {
	ex, _ := newTestExec(t)
	mustExec(t, ex, "CREATE TABLE t (x INT) -- trailing comment")
	res := query(t, ex, "SELECT COUNT(*) -- mid comment\nFROM t")
	if res.Rows[0][0].I != 0 {
		t.Fatalf("row = %v", res.Rows[0])
	}
}

func TestBoolLiterals(t *testing.T) {
	ex, _ := newTestExec(t)
	mustExec(t, ex, "CREATE TABLE t (b BOOL)", "INSERT INTO t VALUES (TRUE), (FALSE)")
	res := query(t, ex, "SELECT COUNT(*) FROM t WHERE b")
	if res.Rows[0][0].I != 1 {
		t.Fatalf("count = %v", res.Rows[0][0])
	}
	res = query(t, ex, "SELECT COUNT(*) FROM t WHERE b = FALSE")
	if res.Rows[0][0].I != 1 {
		t.Fatalf("count = %v", res.Rows[0][0])
	}
	mustNotParse(t, "SELECT COUNT(*) FROM t WHERE NOT b", "SELECT COUNT(*) FROM t WHERE b OR b")
}

func TestDropTable(t *testing.T) {
	ex, _ := newTestExec(t)
	mustExec(t, ex, "CREATE TABLE t (x INT)", "DROP TABLE t", "DROP TABLE IF EXISTS t", "CREATE TABLE t (y TEXT)")
	if _, err := ex.Exec("DROP TABLE missing"); err == nil {
		t.Fatal("drop of missing table accepted")
	}
}

func TestCreateTableIfNotExists(t *testing.T) {
	ex, _ := newTestExec(t)
	mustExec(t, ex,
		"CREATE TABLE t (x INT)",
		"CREATE TABLE IF NOT EXISTS t (x INT)",
	)
}

func TestViewAndTableNameCollision(t *testing.T) {
	ex, _ := newTestExec(t)
	mustExec(t, ex, "CREATE TABLE t (x INT)")
	if _, err := ex.Exec("CREATE VIEW t AS SELECT 1"); err == nil {
		t.Fatal("view shadowing table accepted")
	}
	mustExec(t, ex, "CREATE VIEW v AS SELECT x FROM t")
	if _, err := ex.Exec("CREATE TABLE v (x INT)"); err == nil {
		t.Fatal("table shadowing view accepted")
	}
}

func TestSelectWithoutFrom(t *testing.T) {
	ex, _ := newTestExec(t)
	res := query(t, ex, "SELECT 1 + 1 AS two, 'x'")
	if res.Rows[0][0].I != 2 || res.Rows[0][1].S != "x" {
		t.Fatalf("row = %v", res.Rows[0])
	}
}

func TestAggregateInsideExpression(t *testing.T) {
	ex, _ := newTestExec(t)
	seedPrograms(t, ex)
	res := query(t, ex, "SELECT SUM(rating) / COUNT(*) AS mean FROM programs")
	if math.Abs(res.Rows[0][0].F-7.75) > 1e-9 {
		t.Fatalf("mean = %v", res.Rows[0][0])
	}
}
