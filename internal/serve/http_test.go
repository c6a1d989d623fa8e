package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
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
