package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	contextrank "repro"
	"repro/internal/serve/metrics"
)

// recordingBackend remembers what its last Rank returned, so a test can
// render the response the handler should have written for exactly those
// results and meta. Single-goroutine use only.
type recordingBackend struct {
	Backend
	results []contextrank.Result
	meta    RankMeta
}

func (b *recordingBackend) Rank(user, target string, opts contextrank.RankOptions) ([]contextrank.Result, RankMeta, error) {
	res, meta, err := b.Backend.Rank(user, target, opts)
	b.results, b.meta = res, meta
	return res, meta, err
}

// encodedRankResponse is the reference rendering of a rank response: what
// json.Encoder writes for the rankResponse of the results and meta.
func encodedRankResponse(t *testing.T, results []contextrank.Result, meta RankMeta) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(rankResponse{
		Results: resultsJSON(results),
		Cached:  meta.Cached,
		Epoch:   meta.Epoch,
		Shard:   meta.Shard,
		Micros:  meta.Elapsed.Microseconds(),
	}); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// serveRecorded sends one request straight into h and returns the recorder.
func serveRecorded(h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// wireServer is a server with a target whose member IDs need JSON escaping
// (HTML-sensitive bytes, a quote, U+2028), a preference rule so explain has
// something to say, and an empty target.
func wireServer(t *testing.T) (*Server, *recordingBackend, http.Handler) {
	t.Helper()
	srv := NewServer(contextrank.NewSystem(), Options{})
	if _, err := srv.Declare([]string{"Thing", "Ctx", "Liked", "Empty"}, nil, nil); err != nil {
		t.Fatal(err)
	}
	var concepts []ConceptAssertion
	for i, id := range []string{"a<b>", "x&y", `q"q`, "l\u2028s\u2029", "plain"} {
		concepts = append(concepts, ConceptAssertion{Concept: "Thing", ID: id, Prob: 1})
		if i%2 == 0 {
			concepts = append(concepts, ConceptAssertion{Concept: "Liked", ID: id, Prob: 0.5})
		}
	}
	if _, err := srv.Assert(concepts, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := srv.AddRules([]string{"RULE R1 WHEN Ctx PREFER Liked WITH 0.8"}); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.SetSession("alice", []Measurement{{Concept: "Ctx", Prob: 1}}); err != nil {
		t.Fatal(err)
	}
	rb := &recordingBackend{Backend: srv}
	return srv, rb, NewHandlerFor(rb)
}

// TestRankWireBytes pins the rank response bytes: for a miss and the later
// hits of one ranking, escaped IDs, explain, an empty ranking and the GET
// surface, every body is what json.Encoder renders for rankResponse.
func TestRankWireBytes(t *testing.T) {
	_, rb, h := wireServer(t)
	cases := []struct {
		name, method, path, body string
		wantResults              string // a fragment the results must show
	}{
		{"escaped", "POST", "/v1/rank", `{"user":"alice","target":"Thing"}`, `"a\u003cb\u003e"`},
		{"explain", "POST", "/v1/rank", `{"user":"alice","target":"Thing","explain":true}`, `"explanation":[`},
		{"empty", "POST", "/v1/rank", `{"user":"alice","target":"Empty"}`, `{"results":[],`},
		{"get", "GET", "/v1/rank?user=alice&target=Thing&limit=2", "", `"a\u003cb\u003e"`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for i, wantCached := range []bool{false, true, true} {
				rec := serveRecorded(h, c.method, c.path, c.body)
				if rec.Code != http.StatusOK {
					t.Fatalf("request %d: status %d: %s", i, rec.Code, rec.Body)
				}
				if rb.meta.Cached != wantCached {
					t.Fatalf("request %d: cached = %v, want %v", i, rb.meta.Cached, wantCached)
				}
				want := encodedRankResponse(t, rb.results, rb.meta)
				if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
					t.Fatalf("request %d body:\n got %s\nwant %s", i, got, want)
				}
				if !strings.Contains(rec.Body.String(), c.wantResults) {
					t.Fatalf("request %d body lacks %s: %s", i, c.wantResults, rec.Body)
				}
			}
		})
	}
	// The escapes json.Encoder applies to IDs hold on the stored path too.
	rec := serveRecorded(h, "POST", "/v1/rank", `{"user":"alice","target":"Thing"}`)
	for _, frag := range []string{`"x\u0026y"`, `"q\"q"`, `"l\u2028s\u2029"`} {
		if !strings.Contains(rec.Body.String(), frag) {
			t.Errorf("hit body lacks %s: %s", frag, rec.Body)
		}
	}
}

// TestRankHitsShareOneStoredEncoding: the first hit of a ranking stores its
// results encoding and every later hit writes those very bytes; a ranking
// that is ranked but never hit stores none.
func TestRankHitsShareOneStoredEncoding(t *testing.T) {
	_, rb, h := wireServer(t)
	const body = `{"user":"alice","target":"Thing"}`

	serveRecorded(h, "POST", "/v1/rank", body)
	stored := rb.meta.enc
	if rb.meta.Cached || stored == nil {
		t.Fatalf("first rank: cached = %v, enc = %v; want a filed miss", rb.meta.Cached, stored)
	}
	if stored.Load() != nil {
		t.Fatal("a miss stored its encoding")
	}

	serveRecorded(h, "POST", "/v1/rank", body)
	first := stored.Load()
	if !rb.meta.Cached || rb.meta.enc != stored || first == nil {
		t.Fatalf("first hit: cached = %v, same entry = %v, stored = %v", rb.meta.Cached, rb.meta.enc == stored, first != nil)
	}
	want := encodedRankResponse(t, rb.results, rb.meta)
	if !bytes.Contains(want, *first) {
		t.Fatalf("stored %s is not the results of %s", *first, want)
	}

	serveRecorded(h, "POST", "/v1/rank", body)
	if got := stored.Load(); got != first {
		t.Fatal("the second hit replaced the stored encoding")
	}

	// Another ranking, served once: filed, never hit, nothing stored.
	serveRecorded(h, "POST", "/v1/rank", `{"user":"alice","target":"Liked"}`)
	if rb.meta.Cached || rb.meta.enc == nil || rb.meta.enc.Load() != nil {
		t.Fatalf("a ranking served once: cached = %v, stored = %v", rb.meta.Cached, rb.meta.enc != nil && rb.meta.enc.Load() != nil)
	}
}

// TestRankStoredEncodingConcurrentFirstHits: many first hits of one ranking
// race to store its encoding (run under -race); every response carries the
// same bytes and one encoding ends up stored.
func TestRankStoredEncodingConcurrentFirstHits(t *testing.T) {
	srv, rb, h := wireServer(t)
	const body = `{"user":"alice","target":"Thing"}`
	serveRecorded(h, "POST", "/v1/rank", body) // the miss files the ranking
	stored := rb.meta.enc
	handler := NewHandlerFor(srv)

	const n = 16
	bodies := make([]string, n)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			rec := serveRecorded(handler, "POST", "/v1/rank", body)
			if rec.Code != http.StatusOK {
				t.Errorf("status %d: %s", rec.Code, rec.Body)
			}
			// Everything before micros: the results and the hit's meta.
			b, _, _ := strings.Cut(rec.Body.String(), `,"micros":`)
			bodies[i] = b
		}(i)
	}
	close(start)
	wg.Wait()
	for i := 1; i < n; i++ {
		if bodies[i] != bodies[0] {
			t.Fatalf("hit %d body %s, hit 0 %s", i, bodies[i], bodies[0])
		}
	}
	if !strings.Contains(bodies[0], `"cached":true`) {
		t.Fatalf("not a hit: %s", bodies[0])
	}
	got := stored.Load()
	if got == nil || !strings.HasPrefix(bodies[0], `{"results":`+string(*got)+`,"cached"`) {
		t.Fatalf("stored encoding does not match the responses")
	}
}

// nanBackend ranks one result whose score JSON cannot encode, as a miss or
// as a cache hit with an empty stored encoding.
type nanBackend struct {
	Backend
	hit bool
	enc *atomic.Pointer[[]byte]
}

func (b *nanBackend) Rank(string, string, contextrank.RankOptions) ([]contextrank.Result, RankMeta, error) {
	return []contextrank.Result{{ID: "a", Score: math.NaN()}}, RankMeta{Cached: b.hit, enc: b.enc}, nil
}

// TestRankEncodeFailureIs500: a ranking that cannot be encoded is a 500 with
// the canonical envelope and its request ID, and the access log names the
// encode error — on a miss and on a hit, which stores nothing.
func TestRankEncodeFailureIs500(t *testing.T) {
	for _, hit := range []bool{false, true} {
		b := &nanBackend{hit: hit, enc: new(atomic.Pointer[[]byte])}
		var log bytes.Buffer
		h := NewHandlerWith(b, HandlerOptions{AccessLog: &log})
		rec := serveRecorded(h, "POST", "/v1/rank", `{"user":"alice","target":"Thing"}`)
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("hit=%v: status %d, want 500: %s", hit, rec.Code, rec.Body)
		}
		var e errorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
			t.Fatalf("hit=%v: body %s: %v", hit, rec.Body, err)
		}
		if e.Code != "internal" || e.RequestID == "" || e.RequestID != rec.Header().Get("X-Request-ID") {
			t.Errorf("hit=%v: envelope %+v, X-Request-ID %q", hit, e, rec.Header().Get("X-Request-ID"))
		}
		var line accessLine
		if err := json.Unmarshal(log.Bytes(), &line); err != nil {
			t.Fatalf("hit=%v: access log %q: %v", hit, log.String(), err)
		}
		if !strings.Contains(line.EncodeError, "encode:") || line.Status != http.StatusInternalServerError {
			t.Errorf("hit=%v: access line %+v", hit, line)
		}
		if b.enc.Load() != nil {
			t.Errorf("hit=%v: a failed encoding was stored", hit)
		}
	}
}

// TestCodeLabel: the code label is the status's decimal digits, across
// every status net/http writes, and a status it refuses counts as the 500
// the client got.
func TestCodeLabel(t *testing.T) {
	hm := newHTTPMetrics()
	for _, status := range []int{100, 200, 429, 599, 600, 999, 42, 1000} {
		hm.record("GET /x", status, time.Millisecond)
	}
	reg := metrics.NewRegistry()
	reg.Collect(hm.collect)
	var b strings.Builder
	if _, err := reg.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	for code, n := range map[string]int{"100": 1, "200": 1, "429": 1, "599": 1, "600": 1, "999": 1, "500": 2} {
		if want := fmt.Sprintf(`carserve_http_requests_total{route="GET /x",code="%s"} %d`+"\n", code, n); !strings.Contains(b.String(), want) {
			t.Errorf("scrape missing %q:\n%s", want, b.String())
		}
	}
	if want := `carserve_http_request_seconds_count{route="GET /x"} 8`; !strings.Contains(b.String(), want) {
		t.Errorf("scrape missing %q:\n%s", want, b.String())
	}
}

// TestRecordRequestAllocatesNothing: the middleware records every request
// into the per-route table; on a route already seen that allocates nothing.
func TestRecordRequestAllocatesNothing(t *testing.T) {
	hm := newHTTPMetrics()
	route := strings.Clone("POST /v1/rank")
	hm.record(route, http.StatusOK, time.Millisecond)
	if allocs := testing.AllocsPerRun(100, func() {
		hm.record(route, http.StatusOK, time.Millisecond)
	}); allocs != 0 {
		t.Errorf("recording a request on a seen route: %v allocs/op, want 0", allocs)
	}
}
