package contextrank_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	contextrank "repro"
	"repro/internal/experiments"
	"repro/internal/serve"
	"repro/internal/sql"
)

// docStatements are the SQL statements the repository documents, file by
// file and in the order each file runs them. run marks a statement whose
// tables the Table 1 demo (experiments.SetupTable1) or an earlier statement
// of the same file creates.
var docStatements = []struct {
	file  string
	stmts []docStatement
}{
	{"scripts/smoke_carserved.sh", []docStatement{
		{"SELECT id FROM c_TvProgram", true},
	}},
	{"scripts/smoke_chaos.sh", []docStatement{
		{"CREATE TABLE chaos_t (n INT)", true},
	}},
	{"scripts/smoke_crash_recovery.sh", []docStatement{
		{"CREATE TABLE smoke_t (n INT)", true},
		{"INSERT INTO smoke_t (n) VALUES (1)", true},
		{"INSERT INTO smoke_t (n) VALUES (2)", true},
		{"SELECT n FROM smoke_t", true},
	}},
	{"examples/quickstart/main.go", []docStatement{
		{"SELECT name, preferencescore FROM Programs", false}, // the paper's query shape
		{"SELECT src FROM r_hasSubject WHERE dst = 'News'", true},
	}},
	{"examples/smartoffice/main.go", []docStatement{
		{"SELECT id FROM c_Document ORDER BY id", false}, // the example declares c_Document itself
	}},
	{"cmd/carsql/main.go", []docStatement{
		{"SELECT id, PROB(ev) FROM c_TvProgram ORDER BY id;", true},
	}},
	{"API.md", append([]docStatement{
		{"SELECT id, PROB(ev) AS p FROM c_TvProgram ORDER BY p DESC, id LIMIT 3", true},
		{"SELECT u.id AS id, PROB(EV_OR_AGG(u.ev)) AS p FROM (SELECT id, ev FROM c_Weekend UNION ALL SELECT id, ev FROM c_Breakfast) u GROUP BY u.id", true},
		{"SELECT t.id AS id, PROB(EV_NOT(s.ev)) AS p FROM c_TvProgram t LEFT JOIN r_hasSubject s ON t.id = s.src AND s.dst = 'News' ORDER BY p DESC, id", true},
	}, apiViewSequence...)},
}

type docStatement struct {
	sql string
	run bool
}

// apiViewSequence is API.md's create-query-drop of a view made through
// /v1/exec; TestDocumentedViewDropsOverHTTP sends it over HTTP.
var apiViewSequence = []docStatement{
	{"CREATE TABLE notes (id TEXT, ev EVENT)", true},
	{"INSERT INTO notes VALUES ('n1', EV_TRUE()), ('n2', EV_FALSE())", true},
	{"CREATE VIEW sure_notes AS SELECT id FROM notes WHERE PROB(ev) = 1", true},
	{"SELECT id FROM sure_notes ORDER BY id", true},
	{"DROP VIEW sure_notes", true},
}

// TestDocumentedSQLRuns: every documented statement occurs verbatim in its
// file, parses, and — where its tables exist — runs, in file order, on a
// fresh Table 1 demo.
func TestDocumentedSQLRuns(t *testing.T) {
	for _, doc := range docStatements {
		t.Run(doc.file, func(t *testing.T) {
			text, err := os.ReadFile(doc.file)
			if err != nil {
				t.Fatal(err)
			}
			loader, _, err := experiments.SetupTable1()
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range doc.stmts {
				if !bytes.Contains(text, []byte(s.sql)) {
					t.Errorf("%q does not occur in %s", s.sql, doc.file)
				}
				if _, err := sql.Parse(s.sql); err != nil {
					t.Errorf("parse %q: %v", s.sql, err)
					continue
				}
				if s.run {
					if _, err := loader.DB().Exec(s.sql); err != nil {
						t.Errorf("run %q: %v", s.sql, err)
					}
				}
			}
		})
	}
}

// TestDocumentedViewDropsOverHTTP sends API.md's view sequence through
// /v1/exec and /v1/query: after DROP VIEW, a query on the view is 400.
func TestDocumentedViewDropsOverHTTP(t *testing.T) {
	ts := httptest.NewServer(serve.NewHandlerFor(serve.NewServer(contextrank.NewSystem(), serve.Options{})))
	defer ts.Close()
	post := func(route, stmt string, status int) {
		t.Helper()
		body, _ := json.Marshal(map[string]string{"sql": stmt})
		resp, err := http.Post(ts.URL+route, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != status {
			t.Fatalf("%s %q: status %d, want %d", route, stmt, resp.StatusCode, status)
		}
	}
	for _, s := range apiViewSequence {
		route := "/v1/exec"
		if strings.HasPrefix(s.sql, "SELECT") {
			route = "/v1/query"
		}
		post(route, s.sql, http.StatusOK)
	}
	post("/v1/query", "SELECT id FROM sure_notes ORDER BY id", http.StatusBadRequest)
}
