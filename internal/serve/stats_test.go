package serve

import (
	"slices"
	"testing"
	"time"

	contextrank "repro"
)

// waitStats runs Stats concurrently and fails the test if it does not
// return within the deadline — the regression signature for stats
// collection queueing behind a serving-path lock.
func waitStats(t *testing.T, srv *Server, deadline time.Duration, lock string) Stats {
	t.Helper()
	done := make(chan Stats, 1)
	go func() { done <- srv.Stats() }()
	select {
	case st := <-done:
		return st
	case <-time.After(deadline):
		t.Fatalf("Stats blocked behind %s", lock)
		return Stats{}
	}
}

// TestStatsIsLockFree pins the /v1/stats fix: scraping stats while rank
// traffic holds — or waits on — the facade write lock, the session mutex
// or the cache mutex must return immediately. Before the fix, Stats read
// the rule count under the facade read lock and the session count under
// the session mutex, so a single long context apply added its full
// duration to every scrape's tail latency.
func TestStatsIsLockFree(t *testing.T) {
	srv := NewServer(contextrank.NewSystem(), Options{})
	if _, err := srv.Declare([]string{"TvProgram", "CtxA"}, nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.SetSession("peter", []Measurement{{Concept: "CtxA", Prob: 1}}); err != nil {
		t.Fatal(err)
	}

	// 1. Facade write lock held (a slow mutation in progress).
	entered := make(chan struct{})
	release := make(chan struct{})
	go srv.Facade().WithWriteEpoch(func(sys *contextrank.System) error { //nolint:errcheck // error is nil by construction
		close(entered)
		<-release
		return nil
	})
	<-entered
	st := waitStats(t, srv, 2*time.Second, "the facade write lock")
	if st.Sessions != 1 {
		t.Fatalf("stats under write lock: sessions = %d, want 1", st.Sessions)
	}
	close(release)

	// 2. Session mutex held (an apply being prepared).
	srv.sessions.mu.Lock()
	waitStats(t, srv, 2*time.Second, "the session mutex")
	srv.sessions.mu.Unlock()

	// 3. Cache mutex held (rank traffic updating the LRU).
	srv.cache.mu.Lock()
	waitStats(t, srv, 2*time.Second, "the cache mutex")
	srv.cache.mu.Unlock()
}

// TestStatsCountersSurviveConcurrency spot-checks that the lock-free
// counters still report the truth after the locks are released.
func TestStatsCountersSurviveConcurrency(t *testing.T) {
	srv := NewServer(contextrank.NewSystem(), Options{})
	if _, err := srv.Declare([]string{"TvProgram", "CtxA"}, nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := srv.AddRules([]string{"RULE R1 WHEN CtxA PREFER TvProgram WITH 0.8"}); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.SetSession("peter", []Measurement{{Concept: "CtxA", Prob: 1}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := srv.Rank("peter", "TvProgram", contextrank.RankOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	st := srv.Stats()
	if st.Rules != 1 || st.Sessions != 1 || st.Requests != 3 {
		t.Fatalf("stats = %+v, want rules=1 sessions=1 requests=3", st)
	}
	if st.Cache.Hits != 2 || st.Cache.Misses != 1 {
		t.Fatalf("cache stats = %+v, want 2 hits / 1 miss", st.Cache)
	}
	if st.Latency.Count != 3 || st.Latency.P50Micros <= 0 {
		t.Fatalf("latency stats = %+v, want 3 observations", st.Latency)
	}
	// The one uncached rank compiled R1 (its preference is TvProgram: one view
	// query) and resolved the target TvProgram (the same expression: a hit);
	// nothing was written in between, so nothing was patched. (A carverify
	// build ranks both cache hits again, through the memo.)
	if want := (contextrank.MembershipStats{Hits: 1, Patched: 0, Queries: 1, Entries: 1}); st.Memberships != want && !verifyReuse {
		t.Fatalf("membership stats = %+v, want %+v", st.Memberships, want)
	}
	if err := srv.DropSession("peter"); err != nil {
		t.Fatal(err)
	}
	if got := srv.Stats().Sessions; got != 0 {
		t.Fatalf("sessions after drop = %d, want 0", got)
	}
}

// TestSessionInfoWaitsForNoApply: reading one user's session returns while
// another user's apply is parked inside its write section — it holds the
// session mutex and waits for the facade write lock — instead of queueing
// behind every write in the server.
func TestSessionInfoWaitsForNoApply(t *testing.T) {
	srv := NewServer(contextrank.NewSystem(), Options{})
	if _, err := srv.Declare([]string{"CtxA"}, nil, nil); err != nil {
		t.Fatal(err)
	}
	ms := []Measurement{{Concept: "CtxA", Prob: 0.5}}
	fp, err := srv.SetSession("b", ms)
	if err != nil {
		t.Fatal(err)
	}

	// 1. Facade write lock held.
	entered := make(chan struct{})
	release := make(chan struct{})
	go srv.Facade().WithWriteEpoch(func(sys *contextrank.System) error { //nolint:errcheck // error is nil by construction
		close(entered)
		<-release
		return nil
	})
	<-entered
	// 2. User a's apply parks behind it, holding the session mutex.
	applied := make(chan error, 1)
	go func() {
		_, err := srv.SetSession("a", []Measurement{{Concept: "CtxA", Prob: 1}})
		applied <- err
	}()
	for srv.sessions.mu.TryLock() {
		srv.sessions.mu.Unlock()
		time.Sleep(time.Millisecond)
	}

	// 3. User b's session reads back at once.
	type info struct {
		ms []Measurement
		fp string
		ok bool
	}
	done := make(chan info, 1)
	go func() {
		ms, fp, ok := srv.SessionInfo("b")
		done <- info{ms, fp, ok}
	}()
	select {
	case got := <-done:
		if !got.ok || got.fp != fp || !slices.Equal(got.ms, ms) {
			t.Errorf("SessionInfo(b) = %+v, want %v with fingerprint %s", got, ms, fp)
		}
	case <-time.After(time.Second):
		t.Error("SessionInfo(b) blocked behind user a's apply")
	}
	close(release)
	if err := <-applied; err != nil {
		t.Fatal(err)
	}
	if _, got, ok := srv.SessionInfo("a"); !ok || got == "" {
		t.Fatalf("user a's session after its apply: %q, %v", got, ok)
	}
}
