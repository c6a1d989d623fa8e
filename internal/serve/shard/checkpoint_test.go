package shard

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/daemon"
	"repro/internal/serve"
	"repro/internal/serve/journal"
)

// mutateVocab applies one numbered round of vocabulary/DML mutations —
// the same round on two coordinators must leave identical durable state.
func mutateVocab(t *testing.T, c *Coordinator, round int) {
	t.Helper()
	if round == 0 {
		if _, _, err := c.Exec("CREATE TABLE ckpt_t (n INT)"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Assert([]serve.ConceptAssertion{
		{Concept: "TvProgram", ID: fmt.Sprintf("ckpt-tv%02d", round), Prob: 1},
	}, []serve.RoleAssertion{
		{Role: "hasGenre", Src: fmt.Sprintf("ckpt-tv%02d", round), Dst: "HUMAN-INTEREST", Prob: 0.9},
	}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.AddRules([]string{fmt.Sprintf(
		"RULE ckptR%d WHEN Weekend PREFER TvProgram AND EXISTS hasGenre.{HUMAN-INTEREST} WITH 0.%d1", round, round%9)}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Exec(fmt.Sprintf("INSERT INTO ckpt_t (n) VALUES (%d)", round)); err != nil {
		t.Fatal(err)
	}
	if round%3 == 2 {
		if _, err := c.RemoveRule(fmt.Sprintf("ckptR%d", round-1)); err != nil {
			t.Fatal(err)
		}
	}
}

// tableRows counts ckpt_t rows — double-applied INSERTs show up here.
func tableRows(t *testing.T, c *Coordinator) int {
	t.Helper()
	res, err := c.Query("SELECT n FROM ckpt_t")
	if err != nil {
		t.Fatal(err)
	}
	return len(res.Rows)
}

// TestCheckpointSuffixRecoveryMatchesPureReplay drives the identical
// mixed mutation stream (vocabulary, DML, rules, sessions) through two
// durability directories — one checkpointed mid-stream, one not — then
// crash-recovers both: snapshot + WAL-suffix must produce exactly the
// state that replaying the full WAL onto a fresh base does.
func TestCheckpointSuffixRecoveryMatchesPureReplay(t *testing.T) {
	dirA := t.TempDir() // checkpointed mid-stream
	dirB := t.TempDir() // pure WAL, no checkpoint
	a := newTestCoordinator(t, 4)
	b := newTestCoordinator(t, 4)
	if _, err := a.Recover(dirA, journal.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Recover(dirB, journal.Options{}); err != nil {
		t.Fatal(err)
	}

	const rounds, users = 6, 8
	for round := 0; round < rounds; round++ {
		for _, c := range []*Coordinator{a, b} {
			mutateVocab(t, c, round)
			for i := 0; i < users; i++ {
				u := fmt.Sprintf("user%03d", i)
				if _, err := c.SetSession(u, sessionFor(i+round)); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.DropSession(fmt.Sprintf("user%03d", round%users)); err != nil {
				t.Fatal(err)
			}
		}
		if round == rounds/2 {
			if err := a.Checkpoint(dirA); err != nil {
				t.Fatal(err)
			}
		}
	}
	// a's WAL holds only the post-checkpoint suffix; b's holds everything.

	// Crash both (no CloseJournals). Recover A from its snapshot + suffix,
	// B by pure replay onto the deterministic preload base.
	build, _, err := RestoreBuilder(dirA)
	if err != nil {
		t.Fatal(err)
	}
	ra, err := New(4, build, serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ra.Recover(dirA, journal.Options{}); err != nil {
		t.Fatal(err)
	}
	defer ra.CloseJournals()
	rb := newTestCoordinator(t, 4)
	rsB, err := rb.Recover(dirB, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rb.CloseJournals()
	if rsB.VocabApplied() == 0 {
		t.Fatalf("pure replay applied no vocabulary records: %+v", rsB)
	}

	sa, sb := ra.Stats(), rb.Stats()
	if sa.Sessions != sb.Sessions || sa.Rules != sb.Rules {
		t.Fatalf("recovered state diverged: checkpoint+suffix %d sessions/%d rules, pure replay %d/%d",
			sa.Sessions, sa.Rules, sb.Sessions, sb.Rules)
	}
	if ga, gb := tableRows(t, ra), tableRows(t, rb); ga != gb || ga != rounds {
		t.Fatalf("SQL rows diverged: checkpoint+suffix %d, pure replay %d, want %d", ga, gb, rounds)
	}
	for i := 0; i < users; i++ {
		u := fmt.Sprintf("user%03d", i)
		ma, fa, oka := ra.SessionInfo(u)
		mb, fb, okb := rb.SessionInfo(u)
		if oka != okb {
			t.Fatalf("session presence for %s diverged: %v vs %v", u, oka, okb)
		}
		if !oka {
			continue
		}
		if fa != fb || len(ma) != len(mb) {
			t.Fatalf("session for %s diverged: fp %s vs %s", u, fa, fb)
		}
		if ga, gb := rankScores(t, ra, u), rankScores(t, rb, u); ga != gb {
			t.Fatalf("rank scores for %s diverged:\ncheckpoint+suffix: %s\npure replay:       %s", u, ga, gb)
		}
	}
}

// TestCheckpointConcurrentSuffixRecoveryMatchesPureReplay is the concurrent
// form of TestCheckpointSuffixRecoveryMatchesPureReplay: in every round,
// session applies from several goroutines and the round's vocabulary writes
// run beside a checkpoint, which takes no session lock. After each round the
// checkpointed directory is copied as a crash image; recovering it — that
// round's checkpoint plus its WAL suffix — must give exactly the state a
// pure replay of the same history gives. Each applier owns its users, so the
// interleaving cannot change what the history means.
func TestCheckpointConcurrentSuffixRecoveryMatchesPureReplay(t *testing.T) {
	dirA := t.TempDir() // checkpointed every round, beside the applies
	dirB := t.TempDir() // pure WAL, the same history applied sequentially
	a := newTestCoordinator(t, 2)
	b := newTestCoordinator(t, 2)
	for _, c := range []struct {
		co  *Coordinator
		dir string
	}{{a, dirA}, {b, dirB}} {
		if _, err := c.co.Recover(c.dir, journal.Options{}); err != nil {
			t.Fatal(err)
		}
		defer c.co.CloseJournals()
		if _, err := c.co.Declare([]string{"InKitchen", "InLounge"}, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	const rounds, appliers, perApplier = 4, 4, 3
	user := func(w, i int) string { return fmt.Sprintf("user%d-%d", w, i) }
	// applyRound runs applier w's session writes of the round on c.
	applyRound := func(c *Coordinator, round, w int) error {
		for i := 0; i < perApplier; i++ {
			k := round + i + w
			if k%4 == 3 {
				if err := c.DropSession(user(w, i)); err != nil {
					return err
				}
				continue
			}
			ms := []serve.Measurement{
				{Concept: "Weekend", Prob: 0.1 + 0.1*float64(k%9)},
				{Concept: "InKitchen", Prob: 0.6, Exclusive: "room"},
				{Concept: "InLounge", Prob: 0.1 * float64(k%4), Exclusive: "room"},
			}
			if _, err := c.SetSession(user(w, i), ms); err != nil {
				return err
			}
		}
		return nil
	}
	// image copies a live durability directory, as a crash would leave it.
	image := func(dir string) string {
		t.Helper()
		img := t.TempDir()
		if err := os.CopyFS(img, os.DirFS(dir)); err != nil {
			t.Fatal(err)
		}
		return img
	}
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for w := 0; w < appliers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				if err := applyRound(a, round, w); err != nil {
					t.Error(err)
				}
			}(w)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := a.Checkpoint(dirA); err != nil {
				t.Error(err)
			}
		}()
		mutateVocab(t, a, round)
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		for w := 0; w < appliers; w++ {
			if err := applyRound(b, round, w); err != nil {
				t.Fatal(err)
			}
		}
		mutateVocab(t, b, round)

		imgA, imgB := image(dirA), image(dirB)
		build, _, err := RestoreBuilder(imgA)
		if err != nil {
			t.Fatal(err)
		}
		ra, err := New(2, build, serve.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ra.Recover(imgA, journal.Options{}); err != nil {
			t.Fatal(err)
		}
		rb := newTestCoordinator(t, 2)
		if _, err := rb.Recover(imgB, journal.Options{}); err != nil {
			t.Fatal(err)
		}
		sa, sb := ra.Stats(), rb.Stats()
		if sa.Sessions != sb.Sessions || sa.Rules != sb.Rules || sa.Events != sb.Events {
			t.Fatalf("round %d: checkpoint+suffix %d sessions/%d rules/%d events, pure replay %d/%d/%d",
				round, sa.Sessions, sa.Rules, sa.Events, sb.Sessions, sb.Rules, sb.Events)
		}
		if ga, gb := tableRows(t, ra), tableRows(t, rb); ga != gb || ga != round+1 {
			t.Fatalf("round %d: SQL rows diverged: checkpoint+suffix %d, pure replay %d", round, ga, gb)
		}
		for w := 0; w < appliers; w++ {
			for i := 0; i < perApplier; i++ {
				u := user(w, i)
				_, fa, oka := ra.SessionInfo(u)
				_, fb, okb := rb.SessionInfo(u)
				if oka != okb || fa != fb {
					t.Fatalf("round %d: session %s diverged: %v %s vs %v %s", round, u, oka, fa, okb, fb)
				}
				if ga, gb := rankScores(t, ra, u), rankScores(t, rb, u); ga != gb {
					t.Fatalf("round %d: rank scores for %s diverged:\ncheckpoint+suffix: %s\npure replay:       %s", round, u, ga, gb)
				}
			}
		}
		ra.CloseJournals()
		rb.CloseJournals()
	}
}

// TestCheckpointCoveredRecordReplayIsNoOp simulates a crash between the
// manifest rename and the WAL truncation: the WAL still holds records the
// snapshot already covers. Replay must skip them — re-applying the INSERT
// would double the row.
func TestCheckpointCoveredRecordReplayIsNoOp(t *testing.T) {
	dir := t.TempDir()
	a := newTestCoordinator(t, 2)
	if _, err := a.Recover(dir, journal.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.Exec("CREATE TABLE ckpt_t (n INT)"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.Exec("INSERT INTO ckpt_t (n) VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	if _, err := a.SetSession("peter", sessionFor(1)); err != nil {
		t.Fatal(err)
	}

	// Stash the pre-checkpoint WAL, checkpoint (snapshot + truncate),
	// then write the stale WAL back: exactly the on-disk state a crash
	// after the manifest rename but before truncation leaves behind.
	wals, err := filepath.Glob(filepath.Join(dir, "sessions-*.wal"))
	if err != nil || len(wals) != 1 {
		t.Fatalf("glob: %v (%d files)", err, len(wals))
	}
	saved := make(map[string][]byte)
	for _, p := range wals {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		saved[p] = data
	}
	if err := a.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	for p, data := range saved {
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	build, _, err := RestoreBuilder(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(2, build, serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := b.Recover(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.CloseJournals()
	if rs.SkippedCheckpoint == 0 {
		t.Fatalf("no records skipped as checkpoint-covered: %+v", rs)
	}
	if rs.Execs != 0 {
		t.Fatalf("covered exec re-applied: %+v", rs)
	}
	if got := tableRows(t, b); got != 1 {
		t.Fatalf("ckpt_t holds %d rows after replaying covered records, want 1", got)
	}
	// Sessions are not in snapshots: the covered-seq skip must not have
	// eaten peter's Set record.
	if _, _, ok := b.SessionInfo("peter"); !ok {
		t.Fatal("session lost: covered-record skip must only apply to vocabulary records")
	}
}

// TestCheckpointBoundsWALChurnSoak: under sustained vocabulary churn with
// periodic checkpoints, the WAL's vocabulary backlog must return to zero
// after every checkpoint and the files must stay near the live-session
// population — the unbounded-growth failure mode this PR exists to close.
func TestCheckpointBoundsWALChurnSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("checkpoint churn soak skipped in -short mode")
	}
	dir := t.TempDir()
	c := newTestCoordinator(t, 2)
	if _, err := c.Recover(dir, journal.Options{}); err != nil {
		t.Fatal(err)
	}
	defer c.CloseJournals()
	if _, _, err := c.Exec("CREATE TABLE ckpt_t (n INT)"); err != nil {
		t.Fatal(err)
	}
	var peak int64
	for round := 0; round < 10; round++ {
		for i := 0; i < 20; i++ {
			if _, _, err := c.Exec(fmt.Sprintf("INSERT INTO ckpt_t (n) VALUES (%d)", round*100+i)); err != nil {
				t.Fatal(err)
			}
			u := fmt.Sprintf("user%02d", i%5)
			if _, err := c.SetSession(u, sessionFor(i)); err != nil {
				t.Fatal(err)
			}
		}
		st := c.Stats()
		for _, sh := range st.Shards {
			if sh.Journal != nil && sh.Journal.VocabBytes > peak {
				peak = sh.Journal.VocabBytes
			}
		}
		if err := c.Checkpoint(dir); err != nil {
			t.Fatal(err)
		}
		for i, sh := range c.Stats().Shards {
			if sh.Journal == nil {
				t.Fatalf("shard %d lost its journal", i)
			}
			if sh.Journal.VocabBytes != 0 || sh.Journal.VocabRecords != 0 {
				t.Fatalf("round %d: shard %d retains %d vocabulary bytes (%d records) after checkpoint",
					round, i, sh.Journal.VocabBytes, sh.Journal.VocabRecords)
			}
		}
	}
	if peak == 0 {
		t.Fatal("soak never accumulated vocabulary bytes — trigger input is dead")
	}
	// 10 rounds x 20 INSERTs per shard replica would be ~200 records of
	// history; the checkpointed WAL must stay near the 5 live sessions.
	for i, sh := range c.Stats().Shards {
		if sh.Journal.TotalRecords > 40 {
			t.Fatalf("shard %d WAL holds %d records after final checkpoint — unbounded growth", i, sh.Journal.TotalRecords)
		}
	}
	if got := tableRows(t, c); got != 200 {
		t.Fatalf("ckpt_t holds %d rows, want 200", got)
	}
}

// TestBackgroundCheckpointer: the bytes trigger must fire on its own,
// count into Stats().Checkpoints, and truncate the WAL backlog.
func TestBackgroundCheckpointer(t *testing.T) {
	dir := t.TempDir()
	d, err := daemon.Start(daemon.Config{
		SnapDir:         dir,
		CheckpointBytes: 1, // any vocabulary backlog at all triggers
	})
	if err != nil {
		t.Fatal(err)
	}
	c := &Coordinator{d}
	defer c.CloseJournals()
	if _, _, err := c.Exec("CREATE TABLE ckpt_t (n INT)"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := c.Stats()
		if st.Checkpoints != nil && st.Checkpoints.Count > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background checkpointer never fired: %+v", st.Checkpoints)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !daemon.HasSnapshots(dir) {
		t.Fatal("background checkpoint left no snapshot manifest")
	}
	st := c.Stats()
	if st.Checkpoints.LastUnix == 0 || st.Checkpoints.Failures != 0 {
		t.Fatalf("checkpoint stats %+v", st.Checkpoints)
	}
	for i, sh := range st.Shards {
		if sh.Journal != nil && sh.Journal.VocabBytes != 0 {
			t.Fatalf("shard %d retains %d vocabulary bytes after background checkpoint", i, sh.Journal.VocabBytes)
		}
	}
}
