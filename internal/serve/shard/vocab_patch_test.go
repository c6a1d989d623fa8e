package shard

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	contextrank "repro"
	"repro/internal/serve"
	"repro/internal/workload"
)

// TestAssertPatchesEachPreferenceOncePerShard is the vocabulary-write count
// over HTTP, with the benchmark's eight rules (eight distinct preferences
// TvProgram ⊓ ∃hasGenre.{g}, all reading r_hasGenre): after warm-up, one POST
// /v1/assert of a hasGenre tuple followed by a rank for every user costs each
// shard no view query and exactly one patch per memoized preference, whether
// four users rank or sixteen; the same tuple written by /v1/exec's SQL is not
// logged and costs each shard one query per preference and no patch.
func TestAssertPatchesEachPreferenceOncePerShard(t *testing.T) {
	const rules = 8
	spec := workload.SmallSpec()
	spec.Genres = rules
	c, err := New(2, func(int) (*contextrank.System, error) {
		sys := contextrank.NewSystem()
		_, err := workload.LoadBench(sys.Loader(), sys.Rules(), spec, rules)
		return sys, err
	}, serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(serve.NewHandlerFor(c))
	defer ts.Close()
	call := func(method, path, body string, out any) {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: %s", method, path, resp.Status)
		}
		if out != nil {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				t.Fatal(err)
			}
		}
	}
	memberships := func() []contextrank.MembershipStats {
		t.Helper()
		var st serve.Stats
		call("GET", "/v1/stats", "", &st)
		out := make([]contextrank.MembershipStats, len(st.Shards))
		for i, sh := range st.Shards {
			if sh.Sessions == 0 {
				t.Fatalf("shard %d serves no user: pick users that spread", i)
			}
			out[i] = sh.Memberships
		}
		return out
	}
	var users []string
	rankAll := func() {
		t.Helper()
		for _, u := range users {
			call("POST", "/v1/rank", fmt.Sprintf(`{"user":%q,"target":"TvProgram","top_k":5}`, u), nil)
		}
	}
	for _, n := range []int{4, 16} {
		for len(users) < n {
			u := fmt.Sprintf("person%04d", len(users))
			users = append(users, u)
			call("PUT", "/v1/sessions/"+u+"/context", `{"measurements":[{"concept":"BenchCtx0","prob":0.7},{"concept":"BenchCtx5","prob":0.4}]}`, nil)
		}
		rankAll() // warm-up: every preference memoized on every shard
		for _, w := range []struct {
			name, path, body string
			patched, queries int64
		}{
			{"assert", "/v1/assert", `{"roles":[{"role":"hasGenre","src":"tv003","dst":"genre02","prob":0.6}]}`, rules, 0},
			{"exec", "/v1/exec", `{"sql":"INSERT INTO r_hasGenre (src, dst, ev) VALUES ('tv004', 'genre03', EV_TRUE())"}`, 0, rules},
		} {
			before := memberships()
			call("POST", w.path, w.body, nil)
			rankAll()
			for i, a := range memberships() {
				if p, q := a.Patched-before[i].Patched, a.Queries-before[i].Queries; p != w.patched || q != w.queries {
					t.Fatalf("%d users, %s, shard %d: %d patches and %d view queries, want %d and %d", n, w.name, i, p, q, w.patched, w.queries)
				}
			}
		}
	}
}

// TestDocumentRowsAreDerivedOncePerShard counts, over HTTP with the
// benchmark's eight rules on two shards, the document-side rows derived
// through Space.Prob (hot_path.doc_cache_misses): building a shard's document
// side costs one row per program, once, however many users rank; after that a
// context PUT — whichever concepts it adds, drops or re-weights — followed by
// that user's rank derives none; one POST /v1/assert of a hasGenre tuple
// followed by a rank for every user derives the written program's row once per
// shard, whether four users rank or sixteen; and the same kind of tuple
// written by /v1/exec's SQL, which no handle can name the delta of, derives
// each shard's side again once.
func TestDocumentRowsAreDerivedOncePerShard(t *testing.T) {
	const rules, shards = 8, 2
	spec := workload.SmallSpec()
	spec.Genres = rules
	c, err := New(shards, func(int) (*contextrank.System, error) {
		sys := contextrank.NewSystem()
		_, err := workload.LoadBench(sys.Loader(), sys.Rules(), spec, rules)
		return sys, err
	}, serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(serve.NewHandlerFor(c))
	defer ts.Close()
	call := func(method, path, body string, out any) {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: %s", method, path, resp.Status)
		}
		if out != nil {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				t.Fatal(err)
			}
		}
	}
	// derived runs fn and returns the rows it derived, as /v1/stats counts them.
	derived := func(fn func()) int64 {
		t.Helper()
		var before, after serve.Stats
		call("GET", "/v1/stats", "", &before)
		fn()
		call("GET", "/v1/stats", "", &after)
		for i, sh := range after.Shards {
			if sh.Sessions == 0 {
				t.Fatalf("shard %d serves no user: pick users that spread", i)
			}
		}
		return after.HotPath.DocCacheMisses - before.HotPath.DocCacheMisses
	}
	// rank ranks for the user and fails unless the rank was computed.
	rank := func(u string) {
		t.Helper()
		var res struct {
			Cached bool `json:"cached"`
		}
		call("POST", "/v1/rank", fmt.Sprintf(`{"user":%q,"target":"TvProgram","top_k":5}`, u), &res)
		if res.Cached {
			t.Fatalf("%s's rank was served from the rank cache: it prices nothing", u)
		}
	}
	put := func(u, measurements string) {
		t.Helper()
		call("PUT", "/v1/sessions/"+u+"/context", `{"measurements":[`+measurements+`]}`, nil)
	}
	var users []string
	perShard := int64(0)
	for _, n := range []int{4, 16} {
		built := derived(func() {
			for len(users) < n {
				u := fmt.Sprintf("person%04d", len(users))
				users = append(users, u)
				put(u, `{"concept":"BenchCtx0","prob":0.7},{"concept":"BenchCtx5","prob":0.4}`)
				rank(u)
			}
		})
		if n == 4 {
			if perShard = built / shards; built%shards != 0 || perShard < 1 || perShard > int64(spec.Programs) {
				t.Fatalf("the first %d users' ranks derived %d rows on %d shards, want one per program on each", n, built, shards)
			}
		} else if built != 0 {
			t.Fatalf("%d more users' first ranks derived %d rows: the shards' document sides were built already", n-4, built)
		}

		// The context path: add, drop, swap and re-weight concepts.
		for i, measurements := range []string{
			`{"concept":"BenchCtx0","prob":0.7},{"concept":"BenchCtx5","prob":0.4},{"concept":"BenchCtx2","prob":0.9}`,
			`{"concept":"BenchCtx5","prob":0.4},{"concept":"BenchCtx2","prob":0.9}`,
			`{"concept":"BenchCtx1","prob":0.5},{"concept":"BenchCtx3","prob":0.5},{"concept":"BenchCtx4","prob":0.5},{"concept":"BenchCtx6","prob":0.5},{"concept":"BenchCtx7","prob":0.5}`,
			`{"concept":"BenchCtx1","prob":0.6},{"concept":"BenchCtx3","prob":0.5},{"concept":"BenchCtx4","prob":0.5},{"concept":"BenchCtx6","prob":0.5},{"concept":"BenchCtx7","prob":0.5}`,
			``,
			`{"concept":"BenchCtx0","prob":1}`,
		} {
			u := users[(i*5+n)%len(users)]
			if got := derived(func() { put(u, measurements); rank(u) }); got != 0 {
				t.Fatalf("%d users: %s's context PUT [%s] and rank derived %d document rows", n, u, measurements, got)
			}
		}

		rankAll := func() {
			t.Helper()
			for _, u := range users {
				rank(u)
			}
		}
		// A traced write: the written program's row, once per shard.
		assert := fmt.Sprintf(`{"roles":[{"role":"hasGenre","src":"tv%03d","dst":"genre02","prob":0.6}]}`, n%spec.Programs)
		if got := derived(func() { call("POST", "/v1/assert", assert, nil); rankAll() }); got != shards {
			t.Fatalf("%d users: an assert and everyone's rank derived %d document rows, want the written program's on each of %d shards", n, got, shards)
		}
		// An untraced one: each shard's side, once.
		exec := fmt.Sprintf(`{"sql":"INSERT INTO r_hasGenre (src, dst, ev) VALUES ('tv%03d', 'genre03', EV_TRUE())"}`, (n+2)%spec.Programs)
		if got := derived(func() { call("POST", "/v1/exec", exec, nil); rankAll() }); got != shards*perShard {
			t.Fatalf("%d users: an SQL write and everyone's rank derived %d document rows, want each shard's %d once", n, got, perShard)
		}
	}
}
