package sql

import "testing"

// TestViewText: a view keeps the SELECT text it was created from, exactly as
// written — comments, spacing and non-ASCII runes before and inside it
// included, the statement's trailing semicolon not — and a replacement keeps
// the new text.
func TestViewText(t *testing.T) {
	ex, _ := newTestExec(t)
	mustExec(t, ex,
		"CREATE TABLE t (a INT, b TEXT)",
		"INSERT INTO t VALUES (1, 'ü'), (2, 'x')",
		"CREATE VIEW größe AS SELECT a  FROM t -- the ü rows\n   WHERE b = 'ü' ;",
		"CREATE VIEW both AS SELECT a FROM t UNION ALL SELECT a FROM größe",
	)
	for name, want := range map[string]string{
		"größe": "SELECT a  FROM t -- the ü rows\n   WHERE b = 'ü'",
		"BOTH":  "SELECT a FROM t UNION ALL SELECT a FROM größe",
	} {
		if got, ok := ex.ViewText(name); !ok || got != want {
			t.Errorf("ViewText(%q) = %q, %v; want %q", name, got, ok, want)
		}
	}
	if res := query(t, ex, "SELECT a FROM größe"); len(res.Rows) != 1 || res.Rows[0][0].I != 1 {
		t.Fatalf("view rows = %v", res.Rows)
	}
	mustExec(t, ex, "CREATE OR REPLACE VIEW both AS SELECT b FROM t")
	if got, _ := ex.ViewText("both"); got != "SELECT b FROM t" {
		t.Fatalf("replaced view text = %q", got)
	}
	if _, ok := ex.ViewText("nope"); ok {
		t.Fatal("missing view reported")
	}
}
