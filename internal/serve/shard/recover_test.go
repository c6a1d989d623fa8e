package shard

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	contextrank "repro"
	"repro/internal/serve"
	"repro/internal/serve/journal"
)

// sessionFor builds a distinct Weekend-membership context per user index,
// so restored fingerprints and rank scores are user-specific.
func sessionFor(i int) []serve.Measurement {
	return []serve.Measurement{{Concept: "Weekend", Prob: 0.5 + float64(i%5)/10}}
}

// rankScores snapshots a user's full ranking for bit-identity comparison.
func rankScores(t *testing.T, c *Coordinator, user string) string {
	t.Helper()
	res, _, err := c.Rank(user, "TvProgram", contextrank.RankOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, r := range res {
		fmt.Fprintf(&sb, "%s=%v;", r.ID, r.Score)
	}
	return sb.String()
}

// TestRecoverSessionsAfterCrash is the kill -9 scenario at the unit level:
// journaled sessions, no clean shutdown (journals deliberately left
// un-Closed — durability must come from the per-batch fsync), then a new
// coordinator over the same durable data replays the WAL and serves
// bit-identical fingerprints and rank scores. The since-dropped user must
// not be resurrected.
func TestRecoverSessionsAfterCrash(t *testing.T) {
	dir := t.TempDir()
	a := newTestCoordinator(t, 4)
	if _, err := a.Recover(dir, journal.Options{}); err != nil {
		t.Fatal(err)
	}

	const users = 12
	fps := make(map[string]string)
	scores := make(map[string]string)
	for i := 0; i < users; i++ {
		u := fmt.Sprintf("user%03d", i)
		fp, err := a.SetSession(u, sessionFor(i))
		if err != nil {
			t.Fatal(err)
		}
		fps[u] = fp
	}
	// One user churns and leaves: the stale Set records must not
	// resurrect the session on recovery.
	if _, err := a.SetSession("ghost", sessionFor(3)); err != nil {
		t.Fatal(err)
	}
	if err := a.DropSession("ghost"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < users; i++ {
		u := fmt.Sprintf("user%03d", i)
		scores[u] = rankScores(t, a, u)
	}
	preCount := a.Stats().Sessions

	// Crash: no CloseJournals, no snapshot. The same durable data is
	// rebuilt from scratch (in carserved this is the snapshot restore or
	// the deterministic preload).
	b := newTestCoordinator(t, 4)
	rs, err := b.Recover(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.CloseJournals()
	if rs.Records != users+2 { // users Sets + ghost Set + ghost Drop
		t.Fatalf("replayed %d records, want %d (stats %+v)", rs.Records, users+2, rs)
	}
	if rs.Drops != 1 || rs.Failed != 0 || rs.FingerprintMismatches != 0 {
		t.Fatalf("recovery stats %+v", rs)
	}
	if rs.Users != preCount {
		t.Fatalf("recovered %d users, pre-crash count was %d", rs.Users, preCount)
	}
	if got := b.Stats().Sessions; got != preCount {
		t.Fatalf("post-recovery session count = %d, want %d", got, preCount)
	}
	if _, _, ok := b.SessionInfo("ghost"); ok {
		t.Fatal("dropped user resurrected by replay")
	}
	for i := 0; i < users; i++ {
		u := fmt.Sprintf("user%03d", i)
		_, fp, ok := b.SessionInfo(u)
		if !ok {
			t.Fatalf("session for %s did not survive the crash", u)
		}
		if fp != fps[u] {
			t.Fatalf("fingerprint for %s changed across recovery: %s -> %s", u, fps[u], fp)
		}
		if got := rankScores(t, b, u); got != scores[u] {
			t.Fatalf("rank scores for %s changed across recovery:\n pre: %s\npost: %s", u, scores[u], got)
		}
	}

	// The old generation was superseded: only the new manifest's files
	// remain, and a third boot replays from the rewritten generation.
	c := newTestCoordinator(t, 4)
	if _, err := c.Recover(dir, journal.Options{}); err != nil {
		t.Fatal(err)
	}
	defer c.CloseJournals()
	if got := c.Stats().Sessions; got != preCount {
		t.Fatalf("second recovery: session count = %d, want %d", got, preCount)
	}
}

// TestRecoverSessionsReshard replays a 4-shard journal set into 1-, 2-
// and 7-shard coordinators: routing reassigns users, fingerprints and
// scores must not change, and every session must live on its routing
// shard.
func TestRecoverSessionsReshard(t *testing.T) {
	dir := t.TempDir()
	a := newTestCoordinator(t, 4)
	if _, err := a.Recover(dir, journal.Options{}); err != nil {
		t.Fatal(err)
	}
	const users = 10
	fps := make(map[string]string)
	scores := make(map[string]string)
	for i := 0; i < users; i++ {
		u := fmt.Sprintf("user%03d", i)
		fp, err := a.SetSession(u, sessionFor(i))
		if err != nil {
			t.Fatal(err)
		}
		fps[u] = fp
		scores[u] = rankScores(t, a, u)
	}

	for _, n := range []int{1, 2, 7} {
		// Each reshard recovers from the previous incarnation's
		// generation — exactly the rolling-reshard sequence a production
		// fleet would walk through.
		b := newTestCoordinator(t, n)
		rs, err := b.Recover(dir, journal.Options{})
		if err != nil {
			t.Fatalf("reshard to %d: %v", n, err)
		}
		if rs.Users != users {
			t.Fatalf("reshard to %d recovered %d users, want %d (stats %+v)", n, rs.Users, users, rs)
		}
		for i := 0; i < users; i++ {
			u := fmt.Sprintf("user%03d", i)
			_, fp, ok := b.SessionInfo(u)
			if !ok || fp != fps[u] {
				t.Fatalf("reshard to %d: session for %s = (%q, %v), want fingerprint %q", n, u, fp, ok, fps[u])
			}
			if got := rankScores(t, b, u); got != scores[u] {
				t.Fatalf("reshard to %d: scores for %s changed:\n pre: %s\npost: %s", n, u, scores[u], got)
			}
			// Shard-locality: the session manager of the routing shard —
			// and only that one — holds the session.
			home := b.ShardFor(u)
			for s := 0; s < b.N(); s++ {
				_, _, onShard := b.Shard(s).SessionInfo(u)
				if onShard != (s == home) {
					t.Fatalf("reshard to %d: session for %s on shard %d (home %d)", n, u, s, home)
				}
			}
		}
		b.CloseJournals()
	}
}

// TestRecoverSessionsTornTail: a crash mid group commit leaves a torn
// frame; recovery replays the valid prefix and reports the tear.
func TestRecoverSessionsTornTail(t *testing.T) {
	dir := t.TempDir()
	a := newTestCoordinator(t, 1)
	if _, err := a.Recover(dir, journal.Options{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := a.SetSession(fmt.Sprintf("user%03d", i), sessionFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Tear the single shard's WAL: chop trailing bytes off the last frame.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	torn := 0
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".wal") {
			path := filepath.Join(dir, e.Name())
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data[:len(data)-5], 0o644); err != nil {
				t.Fatal(err)
			}
			torn++
		}
	}
	if torn != 1 {
		t.Fatalf("tore %d files, want 1", torn)
	}

	b := newTestCoordinator(t, 1)
	rs, err := b.Recover(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.CloseJournals()
	if rs.TornFiles != 1 {
		t.Fatalf("torn tail not reported: %+v", rs)
	}
	if rs.Records != 3 || rs.Users != 3 {
		t.Fatalf("recovered %d records / %d users from torn journal, want 3/3", rs.Records, rs.Users)
	}
	if _, _, ok := b.SessionInfo("user003"); ok {
		t.Fatal("the torn record's session came back")
	}
}

// TestRecoverSessionsPreservesFailedRecords: records whose re-apply
// errors (here: the restored system holds foreign data in the session's
// context concept, tripping the foreign-data guard) must be carried into
// the new journal generation, not destroyed by the stale-file cleanup —
// once the conflict is gone, a later boot recovers the sessions.
func TestRecoverSessionsPreservesFailedRecords(t *testing.T) {
	dir := t.TempDir()
	a := newTestCoordinator(t, 2)
	if _, err := a.Recover(dir, journal.Options{}); err != nil {
		t.Fatal(err)
	}
	fps := make(map[string]string)
	for i := 0; i < 6; i++ {
		u := fmt.Sprintf("user%03d", i)
		fp, err := a.SetSession(u, sessionFor(i))
		if err != nil {
			t.Fatal(err)
		}
		fps[u] = fp
	}

	// Crash, then boot over a system where Weekend holds a data
	// assertion: the session layer refuses to clear foreign rows, so
	// every replayed Set fails — and must be preserved, not dropped.
	poisoned := newTestCoordinator(t, 2)
	if _, err := poisoned.Assert([]serve.ConceptAssertion{{Concept: "Weekend", ID: "somebody", Prob: 1}}, nil); err != nil {
		t.Fatal(err)
	}
	rs, err := poisoned.Recover(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	poisoned.CloseJournals()
	if rs.Failed != 6 || rs.Users != 0 {
		t.Fatalf("poisoned recovery stats %+v, want 6 failed / 0 users", rs)
	}

	// Third boot without the conflicting data: the preserved records
	// replay successfully from the poisoned boot's generation.
	c := newTestCoordinator(t, 2)
	rs, err = c.Recover(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.CloseJournals()
	if rs.Failed != 0 || rs.Users != 6 {
		t.Fatalf("healed recovery stats %+v, want 0 failed / 6 users", rs)
	}
	for u, want := range fps {
		_, fp, ok := c.SessionInfo(u)
		if !ok || fp != want {
			t.Fatalf("session for %s after heal = (%q, %v), want %q", u, fp, ok, want)
		}
	}
}

// TestRecoverSessionsBadFile: a previous-generation file with an
// overwritten header is unsalvageable, but it must not brick the boot —
// the other shards' journals still replay.
func TestRecoverSessionsBadFile(t *testing.T) {
	dir := t.TempDir()
	a := newTestCoordinator(t, 2)
	if _, err := a.Recover(dir, journal.Options{}); err != nil {
		t.Fatal(err)
	}
	users := []string{"user000", "user001", "user002", "user003"}
	for i, u := range users {
		if _, err := a.SetSession(u, sessionFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Overwrite one WAL's header with garbage.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	clobbered := false
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".wal") && !clobbered {
			f, err := os.OpenFile(filepath.Join(dir, e.Name()), os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteAt([]byte("XXXXXXXX"), 0); err != nil {
				t.Fatal(err)
			}
			f.Close()
			clobbered = true
		}
	}
	if !clobbered {
		t.Fatal("no WAL file found to clobber")
	}

	b := newTestCoordinator(t, 2)
	rs, err := b.Recover(dir, journal.Options{})
	if err != nil {
		t.Fatalf("one bad file aborted recovery: %v", err)
	}
	defer b.CloseJournals()
	if rs.BadFiles != 1 {
		t.Fatalf("BadFiles = %d, want 1 (stats %+v)", rs.BadFiles, rs)
	}
	// The intact shard's sessions came back; the clobbered shard's are
	// gone (and that is the honest outcome — nothing was salvageable).
	if rs.Users == 0 || rs.Users >= len(users) {
		t.Fatalf("recovered %d users from one intact file of %d total sessions", rs.Users, len(users))
	}
}

// TestCloseJournalsFailsLateSets: after CloseJournals a session update
// must fail loudly — the update stays applied in memory but the caller
// gets no acknowledgement, so there is no silent durability gap.
func TestCloseJournalsFailsLateSets(t *testing.T) {
	dir := t.TempDir()
	c := newTestCoordinator(t, 2)
	if _, err := c.Recover(dir, journal.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SetSession("early", sessionFor(0)); err != nil {
		t.Fatal(err)
	}
	if err := c.CloseJournals(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SetSession("late", sessionFor(1)); err == nil {
		t.Fatal("session update after CloseJournals succeeded silently")
	}
}

// TestRecoverParentCommitWAL pins cross-version recovery: testdata/wal_pr17
// is a 2-shard journal generation written by the commit before the single
// Apply(Record) mutation path, over newTestCoordinator's base vocabulary —
// four session Sets, a re-Set and a Drop; a declare whose third concept
// collided (journaled as its two-concept applied prefix); a BID-tagged
// assert, rule add, rule removal and exec (a copy in each shard's WAL); a
// surviving subscription and a subscribe/unsubscribe pair; a Preserved Set
// that can never apply (it names a data concept); and a record with an op
// from a newer format revision. It must recover through Recover at a
// smaller and a larger shard count with the stats that commit produced.
func TestRecoverParentCommitWAL(t *testing.T) {
	want := RecoveryStats{
		Files: 2, Records: 21, Users: 3, Drops: 1,
		Declares: 1, Asserts: 1, RuleAdds: 1, RuleRemoves: 1, Execs: 1,
		SkippedDuplicate: 5, Subscribes: 2, Unsubscribes: 1, Failed: 2,
	}
	wantFP := map[string]string{"ann": "2652843f6771eb8c", "bob": "e6615f299bcef1ba", "cyd": "71c9a4f2a252dd37", "dee": "", "eve": ""}
	for _, n := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			dir := t.TempDir()
			if err := os.CopyFS(dir, os.DirFS("testdata/wal_pr17")); err != nil {
				t.Fatal(err)
			}
			c := newTestCoordinator(t, n)
			rs, err := c.Recover(dir, journal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer c.CloseJournals()
			if rs != want {
				t.Fatalf("recovery stats\n got %+v\nwant %+v", rs, want)
			}
			for u, fp := range wantFP {
				if _, got, _ := c.SessionInfo(u); got != fp {
					t.Errorf("session %s fingerprint = %q, want %q", u, got, fp)
				}
			}
			subs := c.Subscriptions()
			if len(subs) != 1 || subs[0].ID != "fix-keep" || subs[0].User != "ann" || subs[0].Limit != 3 || subs[0].Threshold != 0.1 {
				t.Errorf("subscriptions = %+v, want only fix-keep", subs)
			}
			if got := len(c.Rules()); got != 2 {
				t.Errorf("%d rules, want 2 (R1 + FIXR; FIXGONE removed)", got)
			}
			if got, want := rankScores(t, c, "ann"), "Oprah=0.6065;Fixture=0.5660000000000001;BBCNews=0.53;"; got != want {
				t.Errorf("ann ranks %s, want %s", got, want)
			}
			// The two records that could not apply are carried verbatim
			// into the new generation, marked checkpoint-exempt.
			preserved := make(map[journal.Op]journal.Record)
			for i := 0; i < n; i++ {
				if _, err := journal.Replay(journalFile(dir, c.journalGen, i), func(rec journal.Record) error {
					if rec.Preserved {
						preserved[rec.Op] = rec
					}
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			}
			if rec := preserved[journal.Op(42)]; len(preserved) != 2 || rec.User != "zed" || rec.Stmt != "from the future" || preserved[journal.OpSet].User != "eve" {
				t.Errorf("preserved records = %+v, want eve's Set and zed's op-42 record", preserved)
			}
		})
	}
}
