package serve_test

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"repro/internal/daemon"
)

// TestScrapeInvariants drives a journaled daemon with ranks, context PUTs,
// a vocabulary write and a few refused requests, then checks what must hold
// across the families of one live scrape: every histogram's buckets are
// cumulative and its _count is its +Inf bucket, the WAL batch-size
// histogram's _sum is the appends counter, and each route's latency
// histogram counted exactly the requests its status counter did.
func TestScrapeInvariants(t *testing.T) {
	d, err := daemon.Start(daemon.Config{SnapDir: t.TempDir(), Preload: "small", Rules: 4, Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go d.Serve(ln)
	base := "http://" + ln.Addr().String()
	do := func(method, path, body string) {
		t.Helper()
		req, err := http.NewRequest(method, base+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	for i, ctx := range []string{"BenchCtx0", "BenchCtx1", "BenchCtx2"} {
		user := fmt.Sprintf("person%04d", i)
		do("PUT", "/v1/sessions/"+user+"/context", `{"measurements":[{"concept":"`+ctx+`","prob":0.8}]}`)
		for range 3 {
			do("POST", "/v1/rank", `{"user":"`+user+`","target":"TvProgram","limit":3}`)
		}
		do("GET", "/v1/rank?user="+user+"&target=TvProgram&limit=3", "")
	}
	do("POST", "/v1/assert", `{"roles":[{"role":"hasGenre","src":"tv003","dst":"genre01","prob":0.6}]}`)
	do("POST", "/v1/rank", `{"user":"person0000","target":"TvProgram","limit":3}`)
	do("PUT", "/v1/sessions/person0000/context", `{"measurements":[{"concept":"BenchCtx3","prob":1}]}`)
	do("POST", "/v1/rank", `{"user":"person0000","target":"TvProgram","limit":3}`)
	do("POST", "/v1/rank", `{"user":"person0000","target":"TvProgram","bogus":1}`) // 400
	do("GET", "/v1/nowhere", "")                                                   // 404, route "other"
	do("DELETE", "/v1/rank", "")                                                   // 405

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}

	histograms := map[string]bool{}
	type series struct{ name, labels string }
	values := map[series]float64{}
	var order []series
	for _, line := range strings.Split(strings.TrimSpace(string(text)), "\n") {
		if name, ok := strings.CutPrefix(line, "# TYPE "); ok {
			if name, ok = strings.CutSuffix(name, " histogram"); ok {
				histograms[name] = true
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		s := series{name: line[:sp]}
		if i := strings.IndexByte(s.name, '{'); i >= 0 {
			s.name, s.labels = s.name[:i], s.name[i:]
		}
		values[s] = v
		order = append(order, s)
	}
	for _, want := range []string{"carserve_rank_latency_seconds", "carserve_http_request_seconds", "carserve_journal_batch_records"} {
		if !histograms[want] {
			t.Errorf("scrape has no histogram %s", want)
		}
	}

	// label returns the value of key in a rendered label block.
	label := func(labels, key string) string {
		_, rest, ok := strings.Cut(labels, key+`="`)
		if !ok {
			return ""
		}
		v, _, _ := strings.Cut(rest, `"`)
		return v
	}
	// withoutLE drops the le pair from a _bucket series' label block.
	withoutLE := func(labels string) string {
		i := strings.Index(labels, `le="`)
		out := strings.TrimSuffix(labels[:i], ",") + "}"
		if out == "{}" {
			return ""
		}
		return out
	}
	checked := 0
	last := map[series]float64{}
	for _, s := range order {
		family, ok := strings.CutSuffix(s.name, "_bucket")
		if !ok || !histograms[family] {
			continue
		}
		key := series{family, withoutLE(s.labels)}
		if prev, seen := last[key]; seen && values[s] < prev {
			t.Errorf("%s%s = %v falls below the previous bucket's %v", s.name, s.labels, values[s], prev)
		}
		last[key] = values[s]
		if label(s.labels, "le") == "+Inf" {
			checked++
			if count, ok := values[series{family + "_count", key.labels}]; !ok || count != values[s] {
				t.Errorf("%s_count%s = %v (present %v), +Inf bucket %v", family, key.labels, count, ok, values[s])
			}
		}
	}
	if checked < 3 {
		t.Errorf("checked %d histogram series, want at least 3", checked)
	}

	appends := values[series{"carserve_journal_appends_total", `{shard="0"}`}]
	if sum := values[series{"carserve_journal_batch_records_sum", `{shard="0"}`}]; appends == 0 || sum != appends {
		t.Errorf("carserve_journal_batch_records_sum = %v, carserve_journal_appends_total = %v", sum, appends)
	}

	requests := map[string]float64{}
	for s, v := range values {
		if s.name == "carserve_http_requests_total" {
			requests[label(s.labels, "route")] += v
		}
	}
	latencies := 0
	for s, v := range values {
		if s.name != "carserve_http_request_seconds_count" {
			continue
		}
		latencies++
		route := label(s.labels, "route")
		if requests[route] != v {
			t.Errorf("route %q: carserve_http_request_seconds_count %v, carserve_http_requests_total sums to %v", route, v, requests[route])
		}
	}
	if latencies != len(requests) || requests["POST /v1/rank"] == 0 || requests["other"] == 0 {
		t.Errorf("%d latency series for requests by route %v", latencies, requests)
	}
}
