package serve_test

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	contextrank "repro"
	"repro/internal/daemon"
	"repro/internal/serve"
)

// shardRecorder remembers what the daemon's last Rank returned.
type shardRecorder struct {
	serve.Backend
	results []contextrank.Result
	meta    serve.RankMeta
}

func (b *shardRecorder) Rank(user, target string, opts contextrank.RankOptions) ([]contextrank.Result, serve.RankMeta, error) {
	res, meta, err := b.Backend.Rank(user, target, opts)
	b.results, b.meta = res, meta
	return res, meta, err
}

// TestRankWireBytesSharded: behind the daemon the rank response — its
// miss and its hits — is byte for byte the json.Encoder rendering, shard
// field included.
func TestRankWireBytesSharded(t *testing.T) {
	coord := daemon.New(contextrank.NewSystem(), serve.Options{})
	if _, err := coord.Declare([]string{"Thing", "Ctx"}, nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Assert([]serve.ConceptAssertion{
		{Concept: "Thing", ID: "a", Prob: 1}, {Concept: "Thing", ID: "b&c", Prob: 0.5},
	}, nil); err != nil {
		t.Fatal(err)
	}
	user := "user01"
	if _, err := coord.SetSession(user, []serve.Measurement{{Concept: "Ctx", Prob: 1}}); err != nil {
		t.Fatal(err)
	}
	rb := &shardRecorder{Backend: coord}
	h := serve.NewHandlerFor(rb)
	tail := regexp.MustCompile(`,"cached":(true|false),"epoch":\d+,"shard":0,"micros":\d+}\n$`)
	for i, wantCached := range []bool{false, true, true} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/rank",
			strings.NewReader(fmt.Sprintf(`{"user":%q,"target":"Thing"}`, user))))
		if rec.Code != http.StatusOK || rb.meta.Cached != wantCached || rb.meta.Shard != 0 {
			t.Fatalf("request %d: status %d, cached %v (want %v), shard %d: %s",
				i, rec.Code, rb.meta.Cached, wantCached, rb.meta.Shard, rec.Body)
		}
		want := serve.EncodedRankResponse(t, rb.results, rb.meta)
		if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
			t.Fatalf("request %d body:\n got %s\nwant %s", i, got, want)
		}
		if !tail.Match(rec.Body.Bytes()) {
			t.Fatalf("request %d body does not end in the shard-0 meta: %s", i, rec.Body)
		}
	}
}
