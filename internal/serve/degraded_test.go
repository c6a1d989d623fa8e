package serve

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"syscall"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/serve/journal"

	contextrank "repro"
)

// newDegradableServer boots a handler over a server with an attached
// WAL whose filesystem is wrapped by the given injector, with the
// degrade-on-disk-error policy armed.
func newDegradableServer(t *testing.T, in *faultinject.Injector) (*httptest.Server, *Server) {
	t.Helper()
	srv := NewServer(contextrank.NewSystem(), Options{DegradeOnDiskError: true})
	j, _, err := journal.Open(filepath.Join(t.TempDir(), "shard0.wal"),
		journal.Options{FS: faultinject.FS(in, nil)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	srv.AttachJournal(j)
	ts := httptest.NewServer(NewHandlerFor(srv))
	t.Cleanup(ts.Close)

	call(t, ts, "POST", "/v1/declare", `{"concepts":["Thing","Ctx"]}`, http.StatusOK, nil)
	call(t, ts, "POST", "/v1/assert",
		`{"concepts":[{"concept":"Thing","id":"a","prob":1}]}`, http.StatusOK, nil)
	return ts, srv
}

// putSession issues a session PUT and returns the raw response.
func putSession(t *testing.T, ts *httptest.Server, user string) *http.Response {
	t.Helper()
	req, err := http.NewRequest("PUT", ts.URL+"/v1/sessions/"+user+"/context",
		bytes.NewBufferString(`{"measurements":[{"concept":"Ctx","prob":1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

// TestDiskFaultFirstMutationSheds503: the in-flight write that hits the
// disk fault itself — before the degraded gate is up — must shed 503 +
// Retry-After like every later one, not fall through to the endpoint's
// 400 fallback (regression: a 4xx told clients to give up on a
// transient disk fault). Recovery via ProbeDisk must then re-journal
// the applied-but-unjournaled tail and accept writes again.
func TestDiskFaultFirstMutationSheds503(t *testing.T) {
	in := faultinject.New(1)
	ts, srv := newDegradableServer(t, in)

	if resp := putSession(t, ts, "alice"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy session PUT: status %d", resp.StatusCode)
	}

	// Dead disk: writes and the reset probe's fsync both fail.
	if err := in.Arm(faultinject.Fault{Point: faultinject.FSWrite, Err: "ENOSPC"}); err != nil {
		t.Fatal(err)
	}
	if err := in.Arm(faultinject.Fault{Point: faultinject.FSSync, Err: "ENOSPC"}); err != nil {
		t.Fatal(err)
	}

	first := putSession(t, ts, "bob")
	if first.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("first failing PUT: status %d, want 503", first.StatusCode)
	}
	if first.Header.Get("Retry-After") == "" {
		t.Error("first failing PUT: no Retry-After")
	}
	second := putSession(t, ts, "carol")
	if second.StatusCode != http.StatusServiceUnavailable || second.Header.Get("Retry-After") == "" {
		t.Fatalf("degraded PUT: status %d Retry-After %q, want 503 with hint",
			second.StatusCode, second.Header.Get("Retry-After"))
	}
	if !srv.Degraded() {
		t.Fatal("server not degraded after disk fault")
	}
	// The server-side error chain carries both sentinels.
	if _, err := srv.SetSession("dave", []Measurement{{Concept: "Ctx", Prob: 1}}); !errors.Is(err, ErrDegraded) {
		t.Fatalf("degraded Set error = %v, want ErrDegraded", err)
	}
	if err := srv.ProbeDisk(); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("probe on dead disk = %v, want ENOSPC", err)
	}

	// Reads keep serving from memory while degraded.
	call(t, ts, "GET", "/v1/rank?user=alice&target=Thing", "", http.StatusOK, nil)

	in.Clear()
	if err := srv.ProbeDisk(); err != nil {
		t.Fatalf("probe after clear: %v", err)
	}
	if srv.Degraded() {
		t.Fatal("still degraded after successful probe")
	}
	if resp := putSession(t, ts, "erin"); resp.StatusCode != http.StatusOK {
		t.Fatalf("recovered session PUT: status %d", resp.StatusCode)
	}
	// bob's write was applied in memory and re-journaled by the probe:
	// it must survive a replay.
	users := map[string]bool{}
	if _, err := journal.Replay(srv.Journal().Path(), func(rec journal.Record) error {
		if rec.Op == journal.OpSet {
			users[rec.User] = true
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, u := range []string{"alice", "bob", "erin"} {
		if !users[u] {
			t.Errorf("user %s missing from replayed WAL", u)
		}
	}
}
