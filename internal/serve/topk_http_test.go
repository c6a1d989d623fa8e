package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	contextrank "repro"
)

// topkServer builds a small ranked catalog: five programs with graded
// genre probabilities so the full ranking has a strict, known order.
func topkServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := NewServer(contextrank.NewSystem(), Options{})
	ts := httptest.NewServer(NewHandlerFor(srv))
	t.Cleanup(ts.Close)

	call(t, ts, "POST", "/v1/declare",
		`{"concepts":["TvProgram"],"roles":["hasGenre"]}`, http.StatusOK, nil)
	body := `{"concepts":[`
	for i := 0; i < 5; i++ {
		if i > 0 {
			body += ","
		}
		body += fmt.Sprintf(`{"concept":"TvProgram","id":"p%d","prob":1}`, i)
	}
	body += `],"roles":[`
	for i := 0; i < 5; i++ {
		if i > 0 {
			body += ","
		}
		body += fmt.Sprintf(`{"role":"hasGenre","src":"p%d","dst":"NEWS","prob":0.%d}`, i, 5+i)
	}
	body += `]}`
	call(t, ts, "POST", "/v1/assert", body, http.StatusOK, nil)
	call(t, ts, "POST", "/v1/rules", `{"rules":[
		"RULE R1 WHEN Weekend PREFER TvProgram AND EXISTS hasGenre.{NEWS} WITH 0.9"
	]}`, http.StatusOK, nil)
	call(t, ts, "PUT", "/v1/sessions/u/context",
		`{"measurements":[{"concept":"Weekend","prob":1}]}`, http.StatusOK, nil)
	return ts
}

// TestHTTPTopK: top_k over POST, GET and batch must return exactly the
// first k of the full ranking, and an explicit non-positive top_k must be
// a 400, not a silent full ranking.
func TestHTTPTopK(t *testing.T) {
	ts := topkServer(t)

	var full rankResponse
	call(t, ts, "POST", "/v1/rank", `{"user":"u","target":"TvProgram"}`,
		http.StatusOK, &full)
	if len(full.Results) != 5 || full.Results[0].ID != "p4" {
		t.Fatalf("full rank = %+v", full.Results)
	}

	var top rankResponse
	call(t, ts, "POST", "/v1/rank", `{"user":"u","target":"TvProgram","top_k":2}`,
		http.StatusOK, &top)
	if len(top.Results) != 2 {
		t.Fatalf("top_k=2 returned %d results", len(top.Results))
	}
	for i := range top.Results {
		if top.Results[i].ID != full.Results[i].ID || top.Results[i].Score != full.Results[i].Score {
			t.Fatalf("top_k result %d = %+v, want %+v", i, top.Results[i], full.Results[i])
		}
	}

	// top_k through the GET form, oversized k degrades to the full ranking.
	var viaGet rankResponse
	call(t, ts, "GET", "/v1/rank?user=u&target=TvProgram&top_k=1", "",
		http.StatusOK, &viaGet)
	if len(viaGet.Results) != 1 || viaGet.Results[0].ID != full.Results[0].ID {
		t.Fatalf("GET top_k=1 = %+v", viaGet.Results)
	}
	call(t, ts, "GET", "/v1/rank?user=u&target=TvProgram&top_k=99", "",
		http.StatusOK, &viaGet)
	if len(viaGet.Results) != 5 {
		t.Fatalf("GET top_k=99 returned %d results", len(viaGet.Results))
	}

	// Explicit zero or negative top_k is rejected; so is non-numeric.
	call(t, ts, "POST", "/v1/rank", `{"user":"u","target":"TvProgram","top_k":0}`,
		http.StatusBadRequest, nil)
	call(t, ts, "POST", "/v1/rank", `{"user":"u","target":"TvProgram","top_k":-3}`,
		http.StatusBadRequest, nil)
	call(t, ts, "GET", "/v1/rank?user=u&target=TvProgram&top_k=x", "",
		http.StatusBadRequest, nil)

	// Batch: per-item top_k, and a bad item names its index in the error.
	var batch rankBatchResponse
	call(t, ts, "POST", "/v1/rank/batch",
		`{"user":"u","items":[{"target":"TvProgram","top_k":3},{"target":"TvProgram"}]}`,
		http.StatusOK, &batch)
	if len(batch.Items) != 2 || len(batch.Items[0].Results) != 3 || len(batch.Items[1].Results) != 5 {
		t.Fatalf("batch top_k = %+v", batch)
	}
	call(t, ts, "POST", "/v1/rank/batch",
		`{"user":"u","items":[{"target":"TvProgram","top_k":0}]}`,
		http.StatusBadRequest, nil)
}
