package shard

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	contextrank "repro"
	"repro/internal/serve"
	"repro/internal/workload"
)

// TestServedPathReadsNoExecutorRows: over HTTP on two shards with the
// benchmark's rules, nothing the ranker serves reads a row through the SQL
// executor — ranks, batches, context PUTs and the poll after them, a
// subscription's folded delta, a logged /v1/assert, a rule added with a
// compound context and removed again, and the naive reference on a target
// and in a batch. Memberships are evaluated off the tables' indexes
// (mapping's eval); the executor reads rows for /v1/query and /v1/exec only.
// The view and sampled rankers are not served: every rank route refuses them.
func TestServedPathReadsNoExecutorRows(t *testing.T) {
	const rules = 4
	spec := workload.SmallSpec()
	spec.Genres = rules
	systems := make([]*contextrank.System, 1)
	c, err := New(len(systems), func(i int) (*contextrank.System, error) {
		systems[i] = contextrank.NewSystem()
		_, err := workload.LoadBench(systems[i].Loader(), systems[i].Rules(), spec, rules)
		return systems[i], err
	}, serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(serve.NewHandlerFor(c))
	defer ts.Close()
	send := func(method, path, body string) (int, string) {
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
		msg, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(msg)
	}
	call := func(method, path, body string) {
		t.Helper()
		if code, msg := send(method, path, body); code/100 != 2 {
			t.Fatalf("%s %s: %d %s", method, path, code, msg)
		}
	}
	rowsRead := func() []int64 {
		out := make([]int64, len(systems))
		for i, sys := range systems {
			out[i] = sys.Loader().DB().RowsRead()
		}
		return out
	}
	users := make([]string, 8)
	for i := range users {
		users[i] = fmt.Sprintf("person%04d", i)
	}
	put := func(u string, ctx int) {
		call("PUT", "/v1/sessions/"+u+"/context", fmt.Sprintf(`{"measurements":[{"concept":"BenchCtx%d","prob":0.7},{"concept":"BenchCtx%d","prob":0.4}]}`, ctx%rules, (ctx+1)%rules))
	}
	rank := func(u string) {
		call("POST", "/v1/rank", fmt.Sprintf(`{"user":%q,"target":"TvProgram","top_k":5}`, u))
	}

	// A subscription whose stream is attached, so a change folds into a delta.
	call("POST", "/v1/subscriptions", `{"user":"person0000","target":"TvProgram","top_k":5,"id":"watch"}`)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/subscriptions/watch/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	frames := bufio.NewScanner(resp.Body)
	next := func() string {
		t.Helper()
		for frames.Scan() {
			if ev, ok := strings.CutPrefix(frames.Text(), "event: "); ok {
				return ev
			}
		}
		t.Fatalf("the event stream ended: %v", frames.Err())
		return ""
	}
	if ev := next(); ev != "snapshot" {
		t.Fatalf("first frame %q, want snapshot", ev)
	}

	before := rowsRead()
	steps := []struct {
		name string
		run  func()
	}{
		{"context PUTs and ranks", func() {
			for i, u := range users {
				put(u, i)
				rank(u)
				rank(u)
			}
		}},
		{"batch", func() {
			call("POST", "/v1/rank/batch", `{"user":"person0001","items":[{"target":"TvProgram","top_k":3},{"candidates":["tv000","tv001","tv002"]}]}`)
		}},
		{"poll", func() {
			put("person0002", 3)
			rank("person0002")
		}},
		{"subscription fold", func() {
			put("person0000", 2)
			if ev := next(); ev != "delta" {
				t.Fatalf("frame %q after the owner's context changed, want delta", ev)
			}
		}},
		{"assert", func() {
			call("POST", "/v1/assert", `{"roles":[{"role":"hasGenre","src":"tv003","dst":"genre02","prob":0.6}],"concepts":[{"concept":"TvProgram","id":"tv900","prob":0.5}]}`)
			for _, u := range users {
				rank(u)
			}
		}},
		{"rule add and remove", func() {
			call("POST", "/v1/rules", `{"rules":["RULE compound WHEN BenchCtx0 AND NOT BenchCtx1 PREFER TvProgram AND EXISTS hasGenre.{genre01} WITH 0.6"]}`)
			for _, u := range users {
				rank(u)
			}
			call("DELETE", "/v1/rules/compound", "")
			for _, u := range users {
				rank(u)
			}
		}},
		{"naive", func() {
			call("POST", "/v1/rank", `{"user":"person0003","target":"TvProgram","top_k":5,"algorithm":"naive"}`)
			call("POST", "/v1/rank/batch", `{"user":"person0004","algorithm":"naive","items":[{"target":"TvProgram","top_k":3},{"candidates":["tv000","tv001","tv002"]}]}`)
		}},
		{"view and sampled refused", func() {
			for _, alg := range []string{"view", "sampled"} {
				for _, r := range []struct{ method, path, body string }{
					{"POST", "/v1/rank", `{"user":"person0005","target":"TvProgram","algorithm":"` + alg + `"}`},
					{"GET", "/v1/rank?user=person0005&target=TvProgram&algorithm=" + alg, ""},
					{"POST", "/v1/rank/batch", `{"user":"person0005","algorithm":"` + alg + `","items":[{"target":"TvProgram"}]}`},
				} {
					if code, msg := send(r.method, r.path, r.body); code != http.StatusBadRequest || !strings.Contains(msg, `"bad_request"`) {
						t.Fatalf("%s %s with %s: %d %s, want 400 bad_request", r.method, r.path, alg, code, msg)
					}
				}
			}
		}},
	}
	for _, s := range steps {
		s.run()
		for i, n := range rowsRead() {
			if n != before[i] {
				t.Fatalf("%s: shard %d read %d rows through the SQL executor, want none", s.name, i, n-before[i])
			}
		}
	}

	for _, s := range []struct{ path, body string }{
		{"/v1/query", `{"sql":"SELECT id FROM c_TvProgram WHERE id = 'tv001'"}`},
		{"/v1/exec", `{"sql":"SELECT COUNT(*) FROM r_hasGenre"}`},
	} {
		was := rowsRead()
		call("POST", s.path, s.body)
		var total int64
		for i, n := range rowsRead() {
			total += n - was[i]
		}
		if total == 0 {
			t.Errorf("%s read no rows through the SQL executor", s.path)
		}
	}
}
