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
