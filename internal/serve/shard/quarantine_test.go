package shard

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	contextrank "repro"
	"repro/internal/faultinject"
	"repro/internal/serve"
	"repro/internal/serve/journal"
)

// userOnShard finds a user name that jump-hashes to shard want.
func userOnShard(t *testing.T, n, want int) string {
	t.Helper()
	for i := 0; i < 10*n*n+100; i++ {
		u := fmt.Sprintf("quser%04d", i)
		if ShardIndex(u, n) == want {
			return u
		}
	}
	t.Fatalf("no user found for shard %d/%d", want, n)
	return ""
}

// TestQuarantineRepairReadmit walks the full failure-domain arc: a shard
// whose broadcast applies keep failing is fenced off after the armed
// threshold, its users reroute to a healthy replica, mutations keep
// landing on the rest, and repair replays the missed WAL range — the
// whole streak, including the failures before the threshold crossed —
// migrates rerouted sessions home and readmits the shard. It runs once
// with a middle shard fenced and once with shard 0, which used to be the
// hard-coded representative replica for reads and broadcast results.
func TestQuarantineRepairReadmit(t *testing.T) {
	for _, bad := range []int{1, 0} {
		t.Run(fmt.Sprintf("bad=%d", bad), func(t *testing.T) { testQuarantineRepairReadmit(t, bad) })
	}
}

func testQuarantineRepairReadmit(t *testing.T, bad int) {
	const n = 3
	dir := t.TempDir()
	c := newTestCoordinator(t, n)
	if _, err := c.Recover(dir, journal.Options{}); err != nil {
		t.Fatal(err)
	}
	defer c.CloseJournals()

	c.SetQuarantineAfter(2)
	in := faultinject.New(1)
	c.SetFaultInjector(in)
	shardSel := bad
	if err := in.Arm(faultinject.Fault{Point: faultinject.BroadcastApply, Shard: &shardSel, Err: "EIO"}); err != nil {
		t.Fatal(err)
	}

	// First failure: below the threshold, so the error surfaces — but
	// the healthy shards applied and journaled the write, so repair must
	// replay it later.
	if _, err := c.Assert([]serve.ConceptAssertion{{Concept: "TvProgram", ID: "Quiz", Prob: 1}},
		[]serve.RoleAssertion{{Role: "hasGenre", Src: "Quiz", Dst: "HUMAN-INTEREST", Prob: 0.9}}); err == nil {
		t.Fatal("broadcast below quarantine threshold must surface the shard error")
	}
	// Second consecutive failure crosses the threshold: the shard is
	// quarantined and the error absorbed.
	if _, err := c.Assert([]serve.ConceptAssertion{{Concept: "TvProgram", ID: "Derby", Prob: 1}},
		[]serve.RoleAssertion{{Role: "hasGenre", Src: "Derby", Dst: "HUMAN-INTEREST", Prob: 0.7}}); err != nil {
		t.Fatalf("threshold-crossing broadcast should absorb the error, got %v", err)
	}
	if q := c.Quarantined(); len(q) != 1 || q[0] != bad {
		t.Fatalf("quarantined = %v, want [%d]", q, bad)
	}
	st := c.Stats()
	if st.Health == nil || st.Health.State != serve.StateQuarantined {
		t.Fatalf("aggregate state = %+v, want quarantined", st.Health)
	}
	if st.Health.Quarantines != 1 {
		t.Fatalf("quarantines = %d, want 1", st.Health.Quarantines)
	}

	// Checkpoints are refused while a shard is out: a snapshot cut now
	// would let compaction drop WAL records the repair still needs.
	if err := c.Checkpoint(t.TempDir()); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("Checkpoint during quarantine = %v, want ErrQuarantined", err)
	}

	// Broadcast results and shard-agnostic reads come from a replica
	// still in service — never the fenced one, which missed the writes.
	added, _, err := c.AddRules([]string{"RULE QFENCE WHEN QFenceCtx PREFER TvProgram WITH 0.5"})
	if err != nil || len(added) != 1 || added[0] != "QFENCE" {
		t.Fatalf("AddRules while quarantined = (%v, %v), want [QFENCE]", added, err)
	}
	listed := false
	for _, r := range c.Rules() {
		listed = listed || r.Name == "QFENCE"
	}
	if !listed {
		t.Fatal("Rules() read the fenced replica: QFENCE missing")
	}
	for i := 0; i < 2*n; i++ { // every round-robin position
		res, err := c.Query("SELECT id FROM c_TvProgram")
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(res.Rows); !strings.Contains(got, "Derby") {
			t.Fatalf("query %d read the fenced replica: %s", i, got)
		}
	}

	// A user homed on the quarantined shard reroutes to a healthy
	// replica for sessions and ranks.
	u := userOnShard(t, n, bad)
	if _, err := c.SetSession(u, sessionFor(1)); err != nil {
		t.Fatal(err)
	}
	alt := c.routeFor(u)
	if alt == bad {
		t.Fatalf("routeFor(%s) = quarantined shard %d", u, bad)
	}
	if _, _, ok := c.shards[alt].SessionInfo(u); !ok {
		t.Fatalf("rerouted session not on replica shard %d", alt)
	}
	if _, meta, err := c.Rank(u, "TvProgram", contextrank.RankOptions{}); err != nil || meta.Shard != alt {
		t.Fatalf("rank while quarantined: shard=%d err=%v, want shard %d", meta.Shard, err, alt)
	}

	// Disk/engine recovers; one probe round repairs and readmits.
	in.Clear()
	if err := c.ProbeHealth(); err != nil {
		t.Fatalf("ProbeHealth: %v", err)
	}
	if q := c.Quarantined(); len(q) != 0 {
		t.Fatalf("still quarantined after repair: %v", q)
	}
	st = c.Stats()
	if st.Health.Repairs != 1 {
		t.Fatalf("repairs = %d, want 1", st.Health.Repairs)
	}
	if st.Health.State != serve.StateHealthy {
		t.Fatalf("state after repair = %s", st.Health.State)
	}

	// The rerouted session migrated home.
	if _, _, ok := c.shards[bad].SessionInfo(u); !ok {
		t.Fatal("session did not migrate back to the repaired shard")
	}
	if _, _, ok := c.shards[alt].SessionInfo(u); ok {
		t.Fatal("stale session left on the replica after migration")
	}
	if got := c.routeFor(u); got != bad {
		t.Fatalf("routeFor after repair = %d, want home %d", got, bad)
	}

	// Bit-identity: the repaired shard serves the same ranking as a
	// healthy one — including Quiz and Derby, asserted while it was
	// failing (Quiz before the threshold crossed, Derby after).
	ref := userOnShard(t, n, (bad+1)%n)
	if _, err := c.SetSession(ref, sessionFor(1)); err != nil {
		t.Fatal(err)
	}
	home, away := rankScores(t, c, u), rankScores(t, c, ref)
	if home != away {
		t.Fatalf("repaired shard diverged:\n home %s\n  ref %s", home, away)
	}
	for _, id := range []string{"Quiz", "Derby"} {
		if !strings.Contains(home, id+"=") {
			t.Fatalf("repair lost %s (streak replay horizon wrong): %s", id, home)
		}
	}

	// Checkpoints work again after readmission.
	if err := c.Checkpoint(dir); err != nil {
		t.Fatalf("Checkpoint after repair: %v", err)
	}
}

// TestBroadcastPanicIsIsolatedAndQuarantines: a panic inside one shard's
// apply must not kill the process — it is recovered at the fan-out
// barrier, counted, and treated as that shard's failure.
func TestBroadcastPanicIsIsolatedAndQuarantines(t *testing.T) {
	const n = 2
	dir := t.TempDir()
	c := newTestCoordinator(t, n)
	if _, err := c.Recover(dir, journal.Options{}); err != nil {
		t.Fatal(err)
	}
	defer c.CloseJournals()

	c.SetQuarantineAfter(1)
	in := faultinject.New(1)
	c.SetFaultInjector(in)
	shardSel := 1
	if err := in.Arm(faultinject.Fault{Point: faultinject.BroadcastApply, Shard: &shardSel, Panic: "engine corrupted"}); err != nil {
		t.Fatal(err)
	}
	before := serve.PanicsTotal()
	if _, err := c.Declare([]string{"PanicProbe"}, nil, nil); err != nil {
		t.Fatalf("panic should quarantine and be absorbed, got %v", err)
	}
	if serve.PanicsTotal() != before+1 {
		t.Fatalf("panics total = %d, want %d", serve.PanicsTotal(), before+1)
	}
	if q := c.Quarantined(); len(q) != 1 || q[0] != 1 {
		t.Fatalf("quarantined = %v, want [1]", q)
	}

	// While the engine is still wedged (fault armed), repair must refuse
	// to readmit the shard — and must survive the panic itself.
	if err := c.RepairShard(1); err == nil {
		t.Fatal("repair readmitted a still-panicking shard")
	}
	if q := c.Quarantined(); len(q) != 1 {
		t.Fatalf("shard readmitted despite failed repair: %v", q)
	}

	in.Clear()
	if err := c.RepairShard(1); err != nil {
		t.Fatalf("RepairShard: %v", err)
	}
	// The repaired shard replayed the broadcast it panicked on and serves
	// the same rankings as the healthy one.
	u0, u1 := userOnShard(t, n, 0), userOnShard(t, n, 1)
	for _, u := range []string{u0, u1} {
		if _, err := c.SetSession(u, sessionFor(2)); err != nil {
			t.Fatal(err)
		}
	}
	if a, b := rankScores(t, c, u0), rankScores(t, c, u1); a != b {
		t.Fatalf("repaired shard diverged:\n %s\n %s", a, b)
	}
}

// TestLastHealthyShardNeverQuarantined: fencing the only live replica
// would leave nothing to serve from or repair from, so its errors keep
// surfacing instead.
func TestLastHealthyShardNeverQuarantined(t *testing.T) {
	const n = 2
	c := newTestCoordinator(t, n)
	c.SetQuarantineAfter(1)
	in := faultinject.New(1)
	c.SetFaultInjector(in)

	s1 := 1
	if err := in.Arm(faultinject.Fault{Point: faultinject.BroadcastApply, Shard: &s1, Err: "EIO"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Declare([]string{"X1"}, nil, nil); err != nil {
		t.Fatalf("first quarantine should absorb, got %v", err)
	}
	// Now shard 0 is the last healthy one; its failures must surface and
	// it must stay in rotation.
	in.Clear()
	s0 := 0
	if err := in.Arm(faultinject.Fault{Point: faultinject.BroadcastApply, Shard: &s0, Err: "EIO"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Declare([]string{"X2"}, nil, nil); err == nil {
		t.Fatal("last healthy shard's error was absorbed")
	}
	if q := c.Quarantined(); len(q) != 1 || q[0] != 1 {
		t.Fatalf("quarantined = %v, want [1] only", q)
	}
}

// TestRankFaultSurfacesWithoutQuarantine: rank.serve faults hit only the
// targeted request path — reads never trigger quarantine machinery.
func TestRankFaultSurfacesWithoutQuarantine(t *testing.T) {
	const n = 2
	c := newTestCoordinator(t, n)
	c.SetQuarantineAfter(1)
	in := faultinject.New(1)
	c.SetFaultInjector(in)
	if err := in.Arm(faultinject.Fault{Point: faultinject.RankServe, Err: "EIO", Count: 1}); err != nil {
		t.Fatal(err)
	}
	u := userOnShard(t, n, 0)
	if _, _, err := c.Rank(u, "TvProgram", contextrank.RankOptions{}); err == nil {
		t.Fatal("armed rank fault did not fire")
	}
	if q := c.Quarantined(); len(q) != 0 {
		t.Fatalf("read fault quarantined a shard: %v", q)
	}
	if _, _, err := c.Rank(u, "TvProgram", contextrank.RankOptions{}); err != nil {
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
