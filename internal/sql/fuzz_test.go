package sql

import (
	"reflect"
	"testing"
)

// FuzzSQLParse: Parse never panics, and an accepted CREATE VIEW's Text
// parses back to the same query — snapshot restore re-creates each view
// from that text.
func FuzzSQLParse(f *testing.F) {
	for _, seed := range []string{
		// Documented statements.
		"SELECT id FROM c_TvProgram",
		"CREATE TABLE smoke_t (n INT)",
		"INSERT INTO smoke_t (n) VALUES (1)",
		"SELECT src FROM r_hasSubject WHERE dst = 'News'",
		"SELECT id, PROB(ev) FROM c_TvProgram ORDER BY id;",
		"SELECT u.id AS id, PROB(EV_OR_AGG(u.ev)) AS p FROM (SELECT id, ev FROM c_Weekend UNION ALL SELECT id, ev FROM c_Breakfast) u GROUP BY u.id",
		"SELECT t.id AS id, PROB(EV_NOT(s.ev)) AS p FROM c_TvProgram t LEFT JOIN r_hasSubject s ON t.id = s.src AND s.dst = 'News' ORDER BY p DESC, id",
		"INSERT INTO notes VALUES ('n1', EV_TRUE()), ('n2', EV_FALSE())",
		"CREATE VIEW sure_notes AS SELECT id FROM notes WHERE PROB(ev) = 1",
		"DROP VIEW IF EXISTS sure_notes",
		// The shapes the concept views take.
		"CREATE OR REPLACE VIEW v_1 AS SELECT t0.id AS id, EV_AND(t0.ev, t1.ev) AS ev FROM c_A t0 JOIN c_B t1 ON t0.id = t1.id",
		"CREATE OR REPLACE VIEW v_2 AS SELECT d.id AS id, EV_AND(d.ev, EV_NOT(c.ev)) AS ev FROM dl_domain d LEFT JOIN (SELECT id, EV_OR_AGG(ev) AS ev FROM c_A GROUP BY id) c ON d.id = c.id",
		"CREATE VIEW v AS SELECT id, ev FROM dl_domain WHERE id IN ('a', 'b''c') -- nominal\n",
		"CREATE VIEW v AS SELECT DISTINCT -x / 2.5e1, y IS NOT NULL FROM t WHERE x <> 1 ORDER BY 1 DESC LIMIT 3",
		// One statement per form the dialect does not have.
		"SELECT a FROM t WHERE b LIKE 'x%'",
		"SELECT a FROM t WHERE b NOT LIKE 'x%'",
		"SELECT CASE WHEN a = 1 THEN 'one' ELSE 'other' END FROM t",
		"SELECT a FROM t WHERE a = 1 OR a = 2",
		"SELECT a FROM t WHERE NOT a = 1",
		"SELECT a FROM t WHERE a NOT IN (1)",
		"SELECT a FROM t GROUP BY a HAVING COUNT(*) > 0",
		"SELECT * FROM t",
		"SELECT u.* FROM t u",
		"SELECT t.a FROM t, t u",
		"SELECT ABS(a), LOWER(b), UPPER(b), LENGTH(b), COALESCE(b, 'z'), ROUND(a) FROM t",
		"SELECT AVG(a), MIN(a), MAX(a) FROM t",
		"SELECT a % 2, a - 1 FROM t",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		stmt, err := Parse(src)
		if err != nil {
			return
		}
		view, ok := stmt.(*CreateViewStmt)
		if !ok {
			return
		}
		again, err := Parse("CREATE VIEW v AS " + view.Text)
		if err != nil {
			t.Fatalf("view text %q of %q does not parse: %v", view.Text, src, err)
		}
		if got := again.(*CreateViewStmt).Query; !reflect.DeepEqual(got, view.Query) {
			t.Fatalf("view text %q of %q parses to %+v, want %+v", view.Text, src, got, view.Query)
		}
	})
}
