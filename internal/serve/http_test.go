package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	contextrank "repro"
)

// call issues one JSON request against the handler and decodes the reply.
func call(t *testing.T, ts *httptest.Server, method, path, body string, status int, into any) {
	t.Helper()
	var req *http.Request
	var err error
	if body == "" {
		req, err = http.NewRequest(method, ts.URL+path, nil)
	} else {
		req, err = http.NewRequest(method, ts.URL+path, bytes.NewBufferString(body))
	}
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != status {
		var e errorResponse
		_ = json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("%s %s: status %d (want %d): %s", method, path, resp.StatusCode, status, e.Error)
	}
	if into != nil {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("%s %s: decoding: %v", method, path, err)
		}
	}
}

// TestHTTPFullFlow drives the paper's §4.2 worked example shape end to end
// through the HTTP API: declare vocabulary, assert facts, register rules,
// set a session context, rank (twice, second cached), inspect stats.
func TestHTTPFullFlow(t *testing.T) {
	srv := NewServer(contextrank.NewSystem(), Options{})
	ts := httptest.NewServer(NewHandlerFor(srv))
	defer ts.Close()

	call(t, ts, "GET", "/healthz", "", http.StatusOK, nil)

	call(t, ts, "POST", "/v1/declare",
		`{"concepts":["TvProgram"],"roles":["hasGenre","hasSubject"]}`,
		http.StatusOK, nil)

	call(t, ts, "POST", "/v1/assert", `{
		"concepts":[
			{"concept":"TvProgram","id":"Oprah","prob":1},
			{"concept":"TvProgram","id":"BBCNews","prob":1},
			{"concept":"TvProgram","id":"MontyPython","prob":1}
		],
		"roles":[
			{"role":"hasGenre","src":"Oprah","dst":"HUMAN-INTEREST","prob":0.85},
			{"role":"hasSubject","src":"BBCNews","dst":"news","prob":1},
			{"role":"hasGenre","src":"MontyPython","dst":"COMEDY","prob":1}
		]}`,
		http.StatusOK, nil)

	var added struct {
		Added []string `json:"added"`
		Epoch int64    `json:"epoch"`
	}
	call(t, ts, "POST", "/v1/rules", `{"rules":[
		"RULE R1 WHEN Weekend PREFER TvProgram AND EXISTS hasGenre.{HUMAN-INTEREST} WITH 0.8",
		"RULE R2 WHEN Workday PREFER TvProgram AND EXISTS hasSubject.{news} WITH 0.9"
	]}`, http.StatusOK, &added)
	if len(added.Added) != 2 {
		t.Fatalf("added = %v", added.Added)
	}

	var rules struct {
		Rules []ruleJSON `json:"rules"`
	}
	call(t, ts, "GET", "/v1/rules", "", http.StatusOK, &rules)
	if len(rules.Rules) != 2 || rules.Rules[0].Name != "R1" {
		t.Fatalf("rules = %+v", rules.Rules)
	}

	var sess struct {
		Fingerprint string `json:"fingerprint"`
	}
	call(t, ts, "PUT", "/v1/sessions/peter/context",
		`{"measurements":[{"concept":"Weekend","prob":1}]}`,
		http.StatusOK, &sess)
	if sess.Fingerprint == "" {
		t.Fatal("no fingerprint")
	}

	var rank1, rank2 rankResponse
	call(t, ts, "POST", "/v1/rank", `{"user":"peter","target":"TvProgram","explain":true}`,
		http.StatusOK, &rank1)
	if len(rank1.Results) != 3 || rank1.Cached {
		t.Fatalf("rank1 = %+v", rank1)
	}
	if rank1.Results[0].ID != "Oprah" {
		t.Fatalf("weekend winner = %s, want Oprah", rank1.Results[0].ID)
	}
	if len(rank1.Results[0].Explanation) == 0 {
		t.Fatal("explain=true returned no explanation")
	}
	call(t, ts, "GET", "/v1/rank?user=peter&target=TvProgram&explain=true",
		"", http.StatusOK, &rank2)
	if !rank2.Cached {
		t.Fatal("identical GET rank should be served from cache")
	}
	if fmt.Sprint(rank2.Results) != fmt.Sprint(rank1.Results) {
		t.Fatalf("cached results differ: %v vs %v", rank2.Results, rank1.Results)
	}

	// Context flips to Workday: new fingerprint, fresh ranking, new winner.
	call(t, ts, "PUT", "/v1/sessions/peter/context",
		`{"measurements":[{"concept":"Workday","prob":1}]}`,
		http.StatusOK, &sess)
	var rank3 rankResponse
	call(t, ts, "POST", "/v1/rank", `{"user":"peter","target":"TvProgram"}`,
		http.StatusOK, &rank3)
	if rank3.Cached {
		t.Fatal("rank after context change must recompute")
	}
	if rank3.Results[0].ID != "BBCNews" {
		t.Fatalf("workday winner = %s, want BBCNews", rank3.Results[0].ID)
	}

	var session struct {
		User         string            `json:"user"`
		Fingerprint  string            `json:"fingerprint"`
		Measurements []measurementJSON `json:"measurements"`
	}
	call(t, ts, "GET", "/v1/sessions/peter", "", http.StatusOK, &session)
	if session.User != "peter" || len(session.Measurements) != 1 || session.Measurements[0].Concept != "Workday" {
		t.Fatalf("session = %+v", session)
	}

	var qres sqlResponse
	call(t, ts, "POST", "/v1/query", `{"sql":"SELECT id FROM c_TvProgram ORDER BY id"}`,
		http.StatusOK, &qres)
	if len(qres.Rows) != 3 || qres.Rows[0][0] != "BBCNews" {
		t.Fatalf("query = %+v", qres)
	}

	// Exec with a row-less statement (CREATE TABLE) must not panic and
	// must report the epoch bump.
	var eres struct {
		Rows  [][]any `json:"rows"`
		Epoch int64   `json:"epoch"`
	}
	call(t, ts, "POST", "/v1/exec", `{"sql":"CREATE TABLE notes (id TEXT)"}`,
		http.StatusOK, &eres)
	if eres.Epoch == 0 || len(eres.Rows) != 0 {
		t.Fatalf("exec = %+v", eres)
	}

	var stats Stats
	call(t, ts, "GET", "/v1/stats", "", http.StatusOK, &stats)
	if stats.Requests != 3 || stats.Sessions != 1 || stats.Rules != 2 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.Cache.Hits != 1 || stats.Cache.Misses != 2 {
		t.Fatalf("cache stats = %+v", stats.Cache)
	}
	// The membership memo's counters, by their wire names.
	var raw struct {
		Memberships map[string]int64 `json:"memberships"`
	}
	call(t, ts, "GET", "/v1/stats", "", http.StatusOK, &raw)
	for _, field := range []string{"hits", "patched", "queries", "entries", "dropped_by_ddl"} {
		if _, ok := raw.Memberships[field]; !ok {
			t.Fatalf("/v1/stats memberships = %v, missing %q", raw.Memberships, field)
		}
	}
	if len(raw.Memberships) != 5 || raw.Memberships["queries"] == 0 || raw.Memberships["dropped_by_ddl"] != 0 {
		t.Fatalf("/v1/stats memberships = %v", raw.Memberships)
	}

	call(t, ts, "DELETE", "/v1/rules/R2", "", http.StatusOK, nil)
	call(t, ts, "GET", "/v1/rules", "", http.StatusOK, &rules)
	if len(rules.Rules) != 1 {
		t.Fatalf("rules after delete = %+v", rules.Rules)
	}

	call(t, ts, "DELETE", "/v1/sessions/peter", "", http.StatusOK, nil)
	call(t, ts, "GET", "/v1/sessions/peter", "", http.StatusNotFound, nil)
}

func TestHTTPErrors(t *testing.T) {
	srv := NewServer(contextrank.NewSystem(), Options{})
	ts := httptest.NewServer(NewHandlerFor(srv))
	defer ts.Close()

	// Malformed body.
	call(t, ts, "POST", "/v1/rank", `{"user":`, http.StatusBadRequest, nil)
	// Unknown field.
	call(t, ts, "POST", "/v1/rank", `{"user":"p","target":"T","bogus":1}`, http.StatusBadRequest, nil)
	// Missing user/target.
	call(t, ts, "POST", "/v1/rank", `{"user":"p"}`, http.StatusBadRequest, nil)
	// Undeclared target concept.
	call(t, ts, "POST", "/v1/rank", `{"user":"p","target":"Nothing"}`, http.StatusBadRequest, nil)
	// Bad rule text.
	call(t, ts, "POST", "/v1/rules", `{"rules":["WHEN PREFER"]}`, http.StatusBadRequest, nil)
	// Removing an unknown rule.
	call(t, ts, "DELETE", "/v1/rules/nope", "", http.StatusNotFound, nil)
	// Bad probability in a session measurement.
	call(t, ts, "PUT", "/v1/sessions/p/context",
		`{"measurements":[{"concept":"C","prob":2}]}`, http.StatusBadRequest, nil)
	// Asserting data into session-context vocabulary (the next apply
	// would clear it — including same-id merges the row-count guard
	// cannot see).
	call(t, ts, "PUT", "/v1/sessions/p/context",
		`{"measurements":[{"concept":"Ctx","prob":0.9}]}`, http.StatusOK, nil)
	call(t, ts, "POST", "/v1/assert",
		`{"concepts":[{"concept":"Ctx","id":"p","prob":0.8}]}`, http.StatusBadRequest, nil)
	// Bad SQL.
	call(t, ts, "POST", "/v1/query", `{"sql":"SELEKT"}`, http.StatusBadRequest, nil)
	// DML through the read-only query endpoint.
	call(t, ts, "POST", "/v1/query", `{"sql":"CREATE TABLE x (id TEXT)"}`, http.StatusBadRequest, nil)
	// GET rank with a bad limit.
	call(t, ts, "GET", "/v1/rank?user=p&target=T&limit=x", "", http.StatusBadRequest, nil)
}

// TestBodyRefusesTrailingData: a request body is one JSON value. On every
// body route a second value (or a stray delimiter) after it is a 400, and the
// first value is not applied; trailing white space is fine.
func TestBodyRefusesTrailingData(t *testing.T) {
	srv := NewServer(contextrank.NewSystem(), Options{})
	ts := httptest.NewServer(NewHandlerFor(srv))
	defer ts.Close()
	call(t, ts, "POST", "/v1/declare", `{"concepts":["TvProgram"]}`+"\n\t ", http.StatusOK, nil)

	routes := []struct{ method, path, body string }{
		{"POST", "/v1/declare", `{"concepts":["Movie"]}`},
		{"POST", "/v1/assert", `{"concepts":[{"concept":"TvProgram","id":"tv1","prob":1}]}`},
		{"POST", "/v1/rules", `{"rules":["RULE r WHEN TOP PREFER TvProgram WITH 0.5"]}`},
		{"PUT", "/v1/sessions/p/context", `{"measurements":[{"concept":"Ctx","prob":0.9}]}`},
		{"POST", "/v1/rank", `{"user":"p","target":"TvProgram"}`},
		{"POST", "/v1/rank/batch", `{"user":"p","items":[{"target":"TvProgram"}]}`},
		{"POST", "/v1/subscriptions", `{"user":"p","target":"TvProgram","id":"s"}`},
		{"POST", "/v1/query", `{"sql":"SELECT id FROM dl_domain"}`},
		{"POST", "/v1/exec", `{"sql":"CREATE TABLE notes (id TEXT)"}`},
	}
	for _, c := range routes {
		for _, trail := range []string{`{"x":1}`, ` {}`, `}`, `1`, `[`} {
			t.Run(c.path+trail, func(t *testing.T) {
				call(t, ts, c.method, c.path, c.body+trail, http.StatusBadRequest, nil)
			})
		}
	}

	// Nothing of a refused body took effect.
	call(t, ts, "GET", "/v1/sessions/p", "", http.StatusNotFound, nil)
	var rows sqlResponse
	call(t, ts, "POST", "/v1/query", `{"sql":"SELECT kind, name FROM dl_vocab"}`, http.StatusOK, &rows)
	if got := fmt.Sprint(rows.Rows); got != "[[concept TvProgram]]" {
		t.Fatalf("declared vocabulary = %s, want [[concept TvProgram]]", got)
	}
	call(t, ts, "POST", "/v1/query", `{"sql":"SELECT id FROM c_TvProgram"}`, http.StatusOK, &rows)
	if len(rows.Rows) != 0 {
		t.Fatalf("TvProgram members = %v, want none", rows.Rows)
	}
	var rules struct {
		Rules []json.RawMessage `json:"rules"`
	}
	call(t, ts, "GET", "/v1/rules", "", http.StatusOK, &rules)
	if len(rules.Rules) != 0 {
		t.Fatalf("rules = %s, want none", rules.Rules)
	}
	call(t, ts, "GET", "/v1/subscriptions/s", "", http.StatusNotFound, nil)

	// Each body alone is accepted: the trailing data was what got refused.
	for _, c := range routes {
		req, err := http.NewRequest(c.method, ts.URL+c.path, strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode/100 != 2 {
			t.Fatalf("%s %s %s alone: status %d", c.method, c.path, c.body, resp.StatusCode)
		}
	}
}

// TestDeclareRefusesNamesNoRuleCanMention: a concept or role name the rule
// parser does not read back as that same atom is a 400 and declares nothing
// — it would take a table no rule can reach, and after sanitizing the table
// of a legal name ("x y" would take "x_y"'s).
func TestDeclareRefusesNamesNoRuleCanMention(t *testing.T) {
	srv := NewServer(contextrank.NewSystem(), Options{})
	ts := httptest.NewServer(NewHandlerFor(srv))
	defer ts.Close()

	for _, c := range []struct {
		name, body string
		status     int
	}{
		{"empty concept", `{"concepts":[""]}`, http.StatusBadRequest},
		{"two words", `{"concepts":["a b"]}`, http.StatusBadRequest},
		{"keyword", `{"concepts":["TOP"]}`, http.StatusBadRequest},
		{"keyword lower case", `{"concepts":["exists"]}`, http.StatusBadRequest},
		{"padded", `{"concepts":[" Padded"]}`, http.StatusBadRequest},
		{"dot", `{"concepts":["p.q"]}`, http.StatusBadRequest},
		{"empty role", `{"roles":[""]}`, http.StatusBadRequest},
		{"two-word role", `{"roles":["has genre"]}`, http.StatusBadRequest},
		{"empty sub", `{"subconcepts":[{"sub":"","super":"TvProgram"}]}`, http.StatusBadRequest},
		{"keyword sub", `{"subconcepts":[{"sub":"Bottom","super":"TvProgram"}]}`, http.StatusBadRequest},
		{"bad super", `{"subconcepts":[{"sub":"News","super":"TvProgram AND"}]}`, http.StatusBadRequest},
		{"x y before x_y", `{"concepts":["x y"]}`, http.StatusBadRequest},
		{"legal names", `{"concepts":["x_y","TvProgram","HUMAN-INTEREST"],"roles":["hasGenre"]}`, http.StatusOK},
		{"legal axiom", `{"subconcepts":[{"sub":"News","super":"TvProgram AND EXISTS hasGenre.TOP"}]}`, http.StatusOK},
	} {
		t.Run(c.name, func(t *testing.T) {
			call(t, ts, "POST", "/v1/declare", c.body, c.status, nil)
		})
	}

	var vocab sqlResponse
	call(t, ts, "POST", "/v1/query", `{"sql":"SELECT kind, name FROM dl_vocab"}`, http.StatusOK, &vocab)
	got := fmt.Sprint(vocab.Rows)
	if want := "[[concept x_y] [concept TvProgram] [concept HUMAN-INTEREST] [role hasGenre]]"; got != want {
		t.Fatalf("declared vocabulary = %s, want %s", got, want)
	}

	// A session's context concepts are declared the same way: the refused
	// apply leaves the previous context in place.
	call(t, ts, "PUT", "/v1/sessions/p/context", `{"measurements":[{"concept":"Ctx","prob":0.9}]}`, http.StatusOK, nil)
	call(t, ts, "PUT", "/v1/sessions/p/context", `{"measurements":[{"concept":"a b","prob":0.9}]}`, http.StatusBadRequest, nil)
	var rows sqlResponse
	call(t, ts, "POST", "/v1/query", `{"sql":"SELECT id FROM c_Ctx"}`, http.StatusOK, &rows)
	if got := fmt.Sprint(rows.Rows); got != "[[p]]" {
		t.Fatalf("Ctx members after the refused apply = %s, want [[p]]", got)
	}
}
