package shard

import (
	"testing"

	contextrank "repro"
	"repro/internal/faultinject"
	"repro/internal/serve/journal"
)

// TestRankFaultSurfacesWithoutQuarantine: a rank.serve fault fails only the
// request it hits; the next rank is served.
func TestRankFaultSurfacesWithoutQuarantine(t *testing.T) {
	c := newTestCoordinator(t, 2)
	in := faultinject.New(1)
	c.SetFaultInjector(in)
	if err := in.Arm(faultinject.Fault{Point: faultinject.RankServe, Err: "EIO", Count: 1}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Rank("peter", "TvProgram", contextrank.RankOptions{}); err == nil {
		t.Fatal("armed rank fault did not fire")
	}
	if _, _, err := c.Rank("peter", "TvProgram", contextrank.RankOptions{}); err != nil {
		t.Fatalf("rank after fault exhausted: %v", err)
	}
}

// TestCheckpointManifestRenameFailure: a failed manifest switch must
// leave the previous checkpoint generation intact and recoverable.
func TestCheckpointManifestRenameFailure(t *testing.T) {
	dir := t.TempDir()
	in := faultinject.New(1)
	c := newTestCoordinator(t, 2)
	if _, err := c.Recover(dir, journal.Options{FS: faultinject.FS(in, nil)}); err != nil {
		t.Fatal(err)
	}
	defer c.CloseJournals()
	if _, err := c.SetSession("alice", sessionFor(1)); err != nil {
		t.Fatal(err)
	}

	if err := in.Arm(faultinject.Fault{Point: faultinject.FSRename, Err: "EIO", Match: "manifest"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Checkpoint(dir); err == nil {
		t.Fatal("Checkpoint succeeded despite manifest rename failure")
	}
	in.Clear()
	if err := c.Checkpoint(dir); err != nil {
		t.Fatalf("Checkpoint after fault cleared: %v", err)
	}

	// The durable state still restores: same sessions, same scores.
	want := rankScores(t, c, "alice")
	c.CloseJournals()
	b := newTestCoordinator(t, 2)
	if _, err := b.Recover(dir, journal.Options{}); err != nil {
		t.Fatal(err)
	}
	defer b.CloseJournals()
	if got := rankScores(t, b, "alice"); got != want {
		t.Fatalf("restore diverged:\n got %s\nwant %s", got, want)
	}
}
