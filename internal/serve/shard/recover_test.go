package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
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

// TestRecoverAfterFailedExec: a /v1/exec statement that fails changes
// nothing, so the WAL — which journals an exec only once it succeeded — and
// the live tables agree. The rows are the same before the failed statements,
// after them and after a crash and replay with no checkpoint between.
func TestRecoverAfterFailedExec(t *testing.T) {
	dir := t.TempDir()
	a := newTestCoordinator(t, 2)
	if _, err := a.Recover(dir, journal.Options{}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(serve.NewHandlerFor(a))
	defer ts.Close()
	post := func(ts *httptest.Server, path, sql string, want int) string {
		t.Helper()
		body, err := json.Marshal(map[string]string{"sql": sql})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != want {
			t.Fatalf("%s %s: %s %s, want %d", path, sql, resp.Status, out, want)
		}
		return string(out)
	}
	const rows = "SELECT a, b FROM t"
	post(ts, "/v1/exec", "CREATE TABLE t (a INT, b TEXT)", http.StatusOK)
	post(ts, "/v1/exec", "INSERT INTO t VALUES (1, 'x'), (0, 'y')", http.StatusOK)
	before := post(ts, "/v1/query", rows, http.StatusOK)
	for _, stmt := range []string{
		"DELETE FROM t WHERE 10 / a > 1",
		"UPDATE t SET b = 'z' WHERE 10 / a > 1",
		"INSERT INTO t VALUES (5, 'p'), ('notanint', 'q')",
	} {
		post(ts, "/v1/exec", stmt, http.StatusBadRequest)
	}
	if after := post(ts, "/v1/query", rows, http.StatusOK); after != before {
		t.Fatalf("rows after the failed statements: %s, want %s", after, before)
	}

	// Crash: no CloseJournals, no checkpoint.
	b := newTestCoordinator(t, 2)
	if _, err := b.Recover(dir, journal.Options{}); err != nil {
		t.Fatal(err)
	}
	defer b.CloseJournals()
	tb := httptest.NewServer(serve.NewHandlerFor(b))
	defer tb.Close()
	if recovered := post(tb, "/v1/query", rows, http.StatusOK); recovered != before {
		t.Fatalf("rows after recovery: %s, want %s", recovered, before)
	}
}

// TestRecoverSessionsReshard replays a journal into coordinators built
// with 1, 2 and 7 shards, each from the previous one's generation:
// fingerprints and scores must not change whatever the count.
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
	// Tear the single shard's WAL inside its last frame: below the logical
	// end, since the bytes past it are only the pre-sized file's slack.
	logical := a.Shard(0).Stats().Journal.Bytes
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
			if err := os.WriteFile(path, data[:logical-5], 0o644); err != nil {
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

// TestRecoverPreservesDeclareOfUnmentionableName: an older build journaled a
// declare of a name no rule can mention ("x y"). Replay refuses it like a
// live declare, counts it Failed and carries it into the new generation.
func TestRecoverPreservesDeclareOfUnmentionableName(t *testing.T) {
	dir := t.TempDir()
	const gen = "00000000000000c5"
	j, _, err := journal.Open(journalFile(dir, gen, 0), journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(journal.Record{Op: journal.OpDeclare, Concepts: []string{"x y"}}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, journalManifestName), []byte(`{"version":1,"shards":1,"gen":"`+gen+`"}`), 0o644); err != nil {
		t.Fatal(err)
	}

	c := newTestCoordinator(t, 1)
	rs, err := c.Recover(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.CloseJournals()
	if rs.Failed != 1 || rs.Declares != 0 {
		t.Fatalf("recovery stats %+v, want the declare failed", rs)
	}
	var preserved []journal.Record
	if _, err := journal.Replay(journalFile(dir, currentGen(t, dir), 0), func(rec journal.Record) error {
		if rec.Preserved {
			preserved = append(preserved, rec)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(preserved) != 1 || preserved[0].Op != journal.OpDeclare || len(preserved[0].Concepts) != 1 || preserved[0].Concepts[0] != "x y" {
		t.Fatalf("preserved records = %+v, want the declare of \"x y\"", preserved)
	}
}

// TestRecoverSessionsBadFile: a previous-generation file with an
// overwritten header is unsalvageable, but it must not brick the boot —
// the generation's other files still replay. The generation is two files,
// as a build that kept one replica per shard wrote it.
func TestRecoverSessionsBadFile(t *testing.T) {
	dir := t.TempDir()
	const gen = "00000000000000b4"
	users := [][]string{{"user000", "user001"}, {"user002", "user003"}}
	for i, us := range users {
		j, _, err := journal.Open(journalFile(dir, gen, i), journal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range us {
			if err := j.Append(journal.Record{Op: journal.OpSet, User: u, Measurements: []journal.Measurement{{Concept: "Weekend", Prob: 0.5}}}); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, journalManifestName), []byte(`{"version":1,"shards":2,"gen":"`+gen+`"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(journalFile(dir, gen, 1), os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("XXXXXXXX"), 0); err != nil {
		t.Fatal(err)
	}
	f.Close()

	b := newTestCoordinator(t, 2)
	rs, err := b.Recover(dir, journal.Options{})
	if err != nil {
		t.Fatalf("one bad file aborted recovery: %v", err)
	}
	defer b.CloseJournals()
	if rs.BadFiles != 1 {
		t.Fatalf("BadFiles = %d, want 1 (stats %+v)", rs.BadFiles, rs)
	}
	// The intact file's sessions came back; the clobbered file's are gone
	// (and that is the honest outcome — nothing was salvageable).
	for i, us := range users {
		for _, u := range us {
			if _, _, ok := b.SessionInfo(u); ok != (i == 0) {
				t.Fatalf("session %s recovered = %v, want %v (stats %+v)", u, ok, i == 0, rs)
			}
		}
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
			if _, err := journal.Replay(journalFile(dir, currentGen(t, dir), 0), func(rec journal.Record) error {
				if rec.Preserved {
					preserved[rec.Op] = rec
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if rec := preserved[journal.Op(42)]; len(preserved) != 2 || rec.User != "zed" || rec.Stmt != "from the future" || preserved[journal.OpSet].User != "eve" {
				t.Errorf("preserved records = %+v, want eve's Set and zed's op-42 record", preserved)
			}
		})
	}
}

// TestRestoreDlCtxCheckpoint pins cross-version restore of a checkpoint:
// testdata/ckpt_dl_ctx is a 2-shard checkpoint written by the build whose
// checkpoints suspended every session and whose snapshots carry a dl_ctx
// table. It holds the manifest, two shard snapshots (data, vocabulary, rules
// and a view rendered from its parse) and the WAL generation past the cut:
// sessions with uncertain and exclusive measurements, a drop, a subscription
// and an exec-created view whose text has a comment. Restored through
// RestoreBuilder and Recover at 1 and 2 shards, it must serve the sessions,
// fingerprints, top-10 scores and view rows that build served (want.json),
// and dl_ctx must be gone: from queries, and from the next checkpoint.
func TestRestoreDlCtxCheckpoint(t *testing.T) {
	raw, err := os.ReadFile("testdata/ckpt_dl_ctx/want.json")
	if err != nil {
		t.Fatal(err)
	}
	var want struct {
		Fingerprints, Top10, Views map[string]string
	}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			dir := t.TempDir()
			if err := os.CopyFS(dir, os.DirFS("testdata/ckpt_dl_ctx")); err != nil {
				t.Fatal(err)
			}
			build, saved, err := RestoreBuilder(dir)
			if err != nil || saved != 2 {
				t.Fatalf("RestoreBuilder: %d shards, %v", saved, err)
			}
			c, err := New(n, build, serve.Options{})
			if err != nil {
				t.Fatal(err)
			}
			rs, err := c.Recover(dir, journal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer c.CloseJournals()
			wantStats := RecoveryStats{Files: 2, Records: 10, Users: 4, Drops: 1, Execs: 1, SkippedDuplicate: 1, Subscribes: 1}
			if rs != wantStats {
				t.Fatalf("recovery stats\n got %+v\nwant %+v", rs, wantStats)
			}
			for u, fp := range want.Fingerprints {
				if _, got, _ := c.SessionInfo(u); got != fp {
					t.Errorf("session %s fingerprint = %q, want %q", u, got, fp)
				}
				res, _, err := c.Rank(u, "TvProgram", contextrank.RankOptions{Limit: 10})
				if err != nil {
					t.Fatal(err)
				}
				var sb strings.Builder
				for _, r := range res {
					fmt.Fprintf(&sb, "%s=%v;", r.ID, r.Score)
				}
				if got := sb.String(); got != want.Top10[u] {
					t.Errorf("%s top 10 = %s, want %s", u, got, want.Top10[u])
				}
			}
			for v, rows := range want.Views {
				res, err := c.Query("SELECT id FROM " + v + " ORDER BY id")
				if err != nil {
					t.Fatal(err)
				}
				var sb strings.Builder
				for _, r := range res.Rows {
					sb.WriteString(r[0].S + ";")
				}
				if sb.String() != rows {
					t.Errorf("view %s rows = %s, want %s", v, sb.String(), rows)
				}
			}
			if subs := c.Subscriptions(); len(subs) != 1 || subs[0].ID != "fix-sub" || subs[0].User != "ann" || subs[0].Limit != 3 {
				t.Errorf("subscriptions = %+v, want only fix-sub", subs)
			}
			if _, err := c.Query("SELECT kind FROM dl_ctx"); err == nil {
				t.Error("dl_ctx survived the restore")
			}
			if err := c.Checkpoint(dir); err != nil {
				t.Fatal(err)
			}
			snaps, err := filepath.Glob(filepath.Join(dir, "shard-*.snapshot.json"))
			if err != nil || len(snaps) != 1 {
				t.Fatalf("%d snapshot files after the checkpoint, want 1 (%v)", len(snaps), err)
			}
			for _, p := range snaps {
				data, err := os.ReadFile(p)
				if err != nil {
					t.Fatal(err)
				}
				if bytes.Contains(data, []byte("dl_ctx")) || bytes.Contains(data, []byte("ctx_")) {
					t.Errorf("%s carries dl_ctx or a context event", filepath.Base(p))
				}
			}
		})
	}
}
