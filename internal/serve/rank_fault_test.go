package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	contextrank "repro"
	"repro/internal/faultinject"
)

// TestRankFaultPointOnTheServer: the rank.serve fault point lives on the
// server. Armed, it fails /v1/rank and /v1/rank/batch; the subscription
// evaluator's re-ranks never fire it; detached, ranking is served again.
func TestRankFaultPointOnTheServer(t *testing.T) {
	srv := NewServer(contextrank.NewSystem(), Options{})
	ts := httptest.NewServer(NewHandlerFor(srv))
	defer ts.Close()
	call(t, ts, "POST", "/v1/declare", `{"concepts":["TvProgram","Weekend"]}`, http.StatusOK, nil)
	call(t, ts, "POST", "/v1/assert", `{"concepts":[{"concept":"TvProgram","id":"Oprah","prob":1}]}`, http.StatusOK, nil)
	call(t, ts, "POST", "/v1/rules", `{"rules":["RULE R1 WHEN Weekend PREFER TvProgram WITH 0.8"]}`, http.StatusOK, nil)
	call(t, ts, "PUT", "/v1/sessions/peter/context", `{"measurements":[{"concept":"Weekend","prob":1}]}`, http.StatusOK, nil)

	in := faultinject.New(1)
	if err := in.Arm(faultinject.Fault{Point: faultinject.RankServe, Err: "EIO"}); err != nil {
		t.Fatal(err)
	}
	srv.SetFaultInjector(in)
	rank := func(path, body string) int {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	const single, batch = `{"user":"peter","target":"TvProgram"}`, `{"user":"peter","items":[{"target":"TvProgram"}]}`
	if code := rank("/v1/rank", single); code == http.StatusOK {
		t.Fatal("armed rank.serve did not fail /v1/rank")
	}
	if code := rank("/v1/rank/batch", batch); code == http.StatusOK {
		t.Fatal("armed rank.serve did not fail /v1/rank/batch")
	}

	// A subscription is evaluated on create and after every write; none of
	// those re-ranks fires the point.
	call(t, ts, "POST", "/v1/subscriptions", `{"user":"peter","target":"TvProgram","id":"s"}`, http.StatusCreated, nil)
	call(t, ts, "PUT", "/v1/sessions/peter/context", `{"measurements":[{"concept":"Weekend","prob":0.5}]}`, http.StatusOK, nil)
	for deadline := time.Now().Add(5 * time.Second); srv.Subscriptions()[0].Events < 2; {
		if time.Now().After(deadline) {
			t.Fatalf("the subscription pushed %+v, want a snapshot and a delta", srv.Subscriptions()[0])
		}
		time.Sleep(time.Millisecond)
	}
	if st := srv.Stats().Subs; st.Evals < 2 {
		t.Fatalf("subscription evaluations %+v, want at least 2", st)
	}
	if fires := in.Snapshot()[0].Fires; fires != 2 {
		t.Fatalf("rank.serve fired %d times, want 2 (the rank and the batch, no evaluation)", fires)
	}
	stream, err := srv.SubscriptionStream("s")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	if ev := stream.Snapshot(); ev.Type != "snapshot" || len(ev.Results) != 1 {
		t.Fatalf("subscription snapshot %+v, want one ranked result", ev)
	}

	srv.SetFaultInjector(nil)
	if code := rank("/v1/rank", single); code != http.StatusOK {
		t.Fatalf("detached injector: /v1/rank answered %d", code)
	}
	if code := rank("/v1/rank/batch", batch); code != http.StatusOK {
		t.Fatalf("detached injector: /v1/rank/batch answered %d", code)
	}
}
