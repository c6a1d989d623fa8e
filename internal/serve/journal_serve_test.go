package serve

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/serve/journal"
)

// attachTestJournal arms srv with a WAL in a temp dir and returns its
// path (fsync enabled — these tests exercise the real durability path).
func attachTestJournal(t *testing.T, srv *Server, opts journal.Options) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "sessions.wal")
	j, _, err := journal.Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	srv.AttachJournal(j)
	return path
}

// replayInto re-applies a WAL by feeding every record to srv.Apply — the
// unsharded equivalent of shard.Coordinator.Recover's replay. Vocabulary
// records whose re-apply fails are skipped, mirroring the recovery path's
// preserve-and-continue policy (a second replay pass over the same WAL
// hits duplicate-declare style errors by design).
func replayInto(t *testing.T, srv *Server, path string) journal.ReplayStats {
	t.Helper()
	rs, err := journal.Replay(path, func(rec journal.Record) error {
		out, err := srv.Apply(rec)
		if err != nil && !rec.Op.IsVocab() {
			return err
		}
		if rec.Op == journal.OpSet && rec.Fingerprint != "" && out.Fingerprint != rec.Fingerprint {
			return fmt.Errorf("fingerprint for %s: journaled %s, recomputed %s", rec.User, rec.Fingerprint, out.Fingerprint)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// TestJournalReplayIdempotence: a WAL holding stale Set records for a
// since-dropped user must not resurrect the session on replay, and
// replaying the same WAL twice (the crash-during-recovery case — the
// journal manifest still points at the old generation, so the next boot
// replays it again) must change nothing: same sessions, same
// fingerprints, and an event space bounded by the live vocabulary — no
// ctx_* leak per replay pass.
func TestJournalReplayIdempotence(t *testing.T) {
	src := NewServer(newTestSystem(t), Options{})
	path := attachTestJournal(t, src, journal.Options{})
	// Vocabulary mutations interleave with the session churn: the WAL is a
	// mixed stream, and replay must apply each kind through its own path.
	if _, err := src.Declare([]string{"CtxNew"}, []string{"watchedBy"}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Assert([]ConceptAssertion{{Concept: "CtxNew", ID: "n0", Prob: 1}}, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := src.AddRules([]string{"RULE rNew WHEN CtxNew PREFER TvProgram AND EXISTS hasGenre.{g0} WITH 0.7"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		// ghost churns through many Sets before leaving — all stale.
		if _, err := src.SetSession("ghost", []Measurement{{Concept: "CtxA", Prob: float64(i%10) / 10}}); err != nil {
			t.Fatal(err)
		}
	}
	wantFP := make(map[string]string)
	for _, u := range []string{"peter", "maria"} {
		fp, err := src.SetSession(u, []Measurement{
			{Concept: "CtxA", Prob: 0.8},
			{Concept: "LocK", Prob: 0.6, Exclusive: "loc"},
		})
		if err != nil {
			t.Fatal(err)
		}
		wantFP[u] = fp
	}
	if err := src.DropSession("ghost"); err != nil {
		t.Fatal(err)
	}

	dst := NewServer(newTestSystem(t), Options{})
	baseline := dst.Stats().Events
	wantRules := dst.Stats().Rules + 1 // the replayed rNew
	check := func(pass int) {
		t.Helper()
		st := dst.Stats()
		if st.Sessions != 2 {
			t.Fatalf("pass %d: %d sessions, want 2", pass, st.Sessions)
		}
		// Vocabulary idempotence: later passes hit duplicate-declare and
		// duplicate-rule errors, which replay skips — the rule count must
		// not drift.
		if st.Rules != wantRules {
			t.Fatalf("pass %d: %d rules, want %d", pass, st.Rules, wantRules)
		}
		if _, ok := dst.Sessions().Measurements("ghost"); ok {
			t.Fatalf("pass %d: dropped user resurrected", pass)
		}
		for u, want := range wantFP {
			if got := dst.Sessions().Fingerprint(u); got != want {
				t.Fatalf("pass %d: fingerprint for %s = %s, want %s", pass, u, got, want)
			}
		}
		// Live vocabulary: each surviving user holds two uncertain
		// measurements (CtxA, LocK), i.e. two basic events — repeated
		// replays must not add a third.
		if st.Events > baseline+2*2 {
			t.Fatalf("pass %d: event space leaked: %d events, baseline %d + 4 live", pass, st.Events, baseline)
		}
	}
	for pass := 1; pass <= 3; pass++ {
		rs := replayInto(t, dst, path)
		if rs.Records != 26 || rs.Torn {
			t.Fatalf("pass %d: replay stats %+v, want 26 clean records", pass, rs)
		}
		if rs.Declares != 1 || rs.Asserts != 1 || rs.RuleAdds != 1 {
			t.Fatalf("pass %d: vocabulary records miscounted: %+v", pass, rs)
		}
		check(pass)
	}
}

// TestJournalDropRetryNotResurrected: a Drop whose in-memory half
// already happened (the first attempt applied but failed its journal
// write, so the client retried) must still journal a Drop record — the
// WAL would otherwise keep a live Set whose replay resurrects the
// acknowledged-dropped session.
func TestJournalDropRetryNotResurrected(t *testing.T) {
	src := NewServer(newTestSystem(t), Options{})
	path := attachTestJournal(t, src, journal.Options{})
	if _, err := src.SetSession("peter", []Measurement{{Concept: "CtxA", Prob: 0.8}}); err != nil {
		t.Fatal(err)
	}
	if err := src.DropSession("peter"); err != nil {
		t.Fatal(err)
	}
	// The retry: peter is already gone in memory, but the drop must
	// reach the WAL again all the same.
	if err := src.DropSession("peter"); err != nil {
		t.Fatal(err)
	}
	rs, err := journal.Replay(path, func(journal.Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if rs.Drops != 2 {
		t.Fatalf("journal holds %d drop records, want 2 (retried drop must be journaled)", rs.Drops)
	}
	dst := NewServer(newTestSystem(t), Options{})
	replayInto(t, dst, path)
	if _, ok := dst.Sessions().Measurements("peter"); ok {
		t.Fatal("dropped session resurrected after a retried drop")
	}
}

// TestJournalCrashChurnSoak runs journaled session churn (the CI step
// matches on Churn|Soak, so this runs under -race), "crashes" without
// closing the journal, then recovers into a fresh server: the recovered
// state must match the pre-crash sessions bit-for-bit and the event
// space must stay bounded through churn, crash and replay. Compaction is
// forced low so the soak also crosses several rewrite cycles.
func TestJournalCrashChurnSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("journal crash soak skipped in -short mode")
	}
	src := NewServer(newTestSystem(t), Options{})
	path := attachTestJournal(t, src, journal.Options{CompactMinRecords: 64})
	baseline := src.Stats().Events

	const (
		users   = 50
		applies = 3000
	)
	ms := func(u, phase int) []Measurement {
		return []Measurement{
			{Concept: "CtxA", Prob: 0.5 + 0.04*float64((u+phase)%10)},
			{Concept: "LocK", Prob: 0.6, Exclusive: "loc"},
			{Concept: "LocO", Prob: 0.3, Exclusive: "loc"},
		}
	}
	for i := 0; i < applies; i++ {
		u := i % users
		name := fmt.Sprintf("user%03d", u)
		if _, err := src.SetSession(name, ms(u, i/users)); err != nil {
			t.Fatal(err)
		}
		if i%7 == 6 {
			if err := src.DropSession(name); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := src.Stats()
	if st.Journal == nil || st.Journal.Compactions == 0 {
		t.Fatalf("soak did not exercise compaction: %+v", st.Journal)
	}
	if bound := baseline + 3*users; st.Events > bound {
		t.Fatalf("event space grew under journaled churn: %d > bound %d", st.Events, bound)
	}
	preSessions := st.Sessions
	preFP := make(map[string]string)
	for _, u := range src.Sessions().Users() {
		preFP[u] = src.Sessions().Fingerprint(u)
	}

	// Crash (journal not closed; group commit already fsynced every ack)
	// and recover into a fresh server over the same durable data.
	dst := NewServer(newTestSystem(t), Options{})
	rs := replayInto(t, dst, path)
	if rs.Torn {
		t.Fatalf("journal torn without a crash mid-write: %+v", rs)
	}
	if got := dst.Stats().Sessions; got != preSessions {
		t.Fatalf("recovered %d sessions, want %d", got, preSessions)
	}
	for u, want := range preFP {
		if got := dst.Sessions().Fingerprint(u); got != want {
			t.Fatalf("fingerprint for %s = %s, want %s", u, got, want)
		}
	}
	if ev := dst.Stats().Events; ev > baseline+3*users {
		t.Fatalf("event space after replay: %d > bound %d", ev, baseline+3*users)
	}
	// The journal the soak left behind is itself bounded: compaction held
	// the file near the live population, so replay cost is O(live), not
	// O(history).
	if rs.Records > 4*users+64 {
		t.Fatalf("replayed %d records for %d live users — compaction not bounding the file", rs.Records, preSessions)
	}
}

// TestJournalSubscriptionReplaceOrder: racing replaces of one
// subscription id (and, every other round, an unsubscribe racing them)
// must reach the WAL in the order they took effect in memory — Apply
// submits the record while the registry lock is held — so a crash replays
// the same winner the live server ended up with.
func TestJournalSubscriptionReplaceOrder(t *testing.T) {
	src := NewServer(newTestSystem(t), Options{})
	path := attachTestJournal(t, src, journal.Options{NoSync: true})
	const rounds, writers = 200, 4
	for r := 0; r < rounds; r++ {
		id := fmt.Sprintf("contested-%03d", r)
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var err error
				if w == 0 && r%2 == 1 {
					_, err = src.Unsubscribe(id)
				} else {
					_, err = src.Subscribe(id, SubscriptionSpec{User: "peter", RankItem: RankItem{Target: "TvProgram", Limit: 1 + w}})
				}
				if err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
	}

	dst := NewServer(newTestSystem(t), Options{})
	replayInto(t, dst, path)
	limits := func(srv *Server) map[string]int {
		out := make(map[string]int)
		for _, info := range srv.Subscriptions() {
			out[info.ID] = info.Limit
		}
		return out
	}
	live, replayed := limits(src), limits(dst)
	if len(live) < rounds/2 {
		t.Fatalf("only %d live subscriptions after %d rounds", len(live), rounds)
	}
	if len(replayed) != len(live) {
		t.Fatalf("replay restored %d subscriptions, live server holds %d", len(replayed), len(live))
	}
	for id, want := range live {
		if got, ok := replayed[id]; !ok || got != want {
			t.Fatalf("subscription %s: replayed limit %d (present %v), live limit %d — journal order != apply order", id, got, ok, want)
		}
	}
}
