package serve

import (
	"net/http"
	"net/http/httptest"
	"testing"

	contextrank "repro"
	"repro/internal/serve/journal"
)

// TestRemovedSQLFormsRefused: a statement in a form the SQL dialect does not
// have is 400 bad_request on /v1/query and on /v1/exec, bare and as the body
// of a CREATE VIEW. A refused exec bumps no epoch and journals nothing.
func TestRemovedSQLFormsRefused(t *testing.T) {
	srv := NewServer(contextrank.NewSystem(), Options{})
	attachTestJournal(t, srv, journal.Options{})
	ts := httptest.NewServer(NewHandlerFor(srv))
	defer ts.Close()

	var ok struct {
		Epoch int64 `json:"epoch"`
	}
	call(t, ts, "POST", "/v1/exec", `{"sql":"CREATE TABLE t (a INT, b TEXT)"}`, http.StatusOK, &ok)
	call(t, ts, "POST", "/v1/exec", `{"sql":"INSERT INTO t VALUES (1, 'x'), (2, 'y')"}`, http.StatusOK, &ok)
	epoch, appends := ok.Epoch, srv.Journal().Stats().Appends

	for _, c := range []struct{ form, stmt string }{
		{"LIKE", "SELECT a FROM t WHERE b LIKE 'x%'"},
		{"NOT LIKE", "SELECT a FROM t WHERE b NOT LIKE 'x%'"},
		{"CASE", "SELECT CASE WHEN a = 1 THEN 'one' ELSE 'other' END AS c FROM t"},
		{"OR", "SELECT a FROM t WHERE a = 1 OR a = 2"},
		{"NOT", "SELECT a FROM t WHERE NOT a = 1"},
		{"NOT IN", "SELECT a FROM t WHERE a NOT IN (1)"},
		{"HAVING", "SELECT a FROM t GROUP BY a HAVING COUNT(*) > 0"},
		{"SELECT *", "SELECT * FROM t"},
		{"alias.*", "SELECT u.* FROM t u"},
		{"comma join", "SELECT t.a FROM t, t u"},
		{"ABS", "SELECT ABS(a) AS c FROM t"},
		{"LOWER", "SELECT LOWER(b) AS c FROM t"},
		{"UPPER", "SELECT UPPER(b) AS c FROM t"},
		{"LENGTH", "SELECT LENGTH(b) AS c FROM t"},
		{"COALESCE", "SELECT COALESCE(b, 'z') AS c FROM t"},
		{"ROUND", "SELECT ROUND(a) AS c FROM t"},
		{"AVG", "SELECT AVG(a) AS c FROM t"},
		{"MIN", "SELECT MIN(a) AS c FROM t"},
		{"MAX", "SELECT MAX(a) AS c FROM t"},
		{"%", "SELECT a % 2 AS c FROM t"},
		{"binary -", "SELECT a - 1 AS c FROM t"},
	} {
		t.Run(c.form, func(t *testing.T) {
			body := func(sql string) string { return `{"sql":"` + sql + `"}` }
			var e errorResponse
			call(t, ts, "POST", "/v1/query", body(c.stmt), http.StatusBadRequest, &e)
			if e.Code != "bad_request" {
				t.Errorf("/v1/query code = %q, want bad_request", e.Code)
			}
			for _, stmt := range []string{c.stmt, "CREATE VIEW refused AS " + c.stmt} {
				e = errorResponse{}
				call(t, ts, "POST", "/v1/exec", body(stmt), http.StatusBadRequest, &e)
				if e.Code != "bad_request" {
					t.Errorf("/v1/exec %s: code = %q, want bad_request", stmt, e.Code)
				}
			}
		})
	}

	if got := srv.Journal().Stats().Appends; got != appends {
		t.Errorf("refused statements journaled %d records", got-appends)
	}
	call(t, ts, "POST", "/v1/exec", `{"sql":"DELETE FROM t WHERE a = 2"}`, http.StatusOK, &ok)
	if ok.Epoch != epoch+1 {
		t.Errorf("epoch after the refusals and one write = %d, want %d", ok.Epoch, epoch+1)
	}
}
