package shard

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/serve"
	"repro/internal/serve/journal"
)

// streamScores opens a subscription's stream and flattens its opening
// snapshot for bit-identity comparison, detaching afterwards.
func streamScores(t *testing.T, c *Coordinator, id string) string {
	t.Helper()
	st, err := c.SubscriptionStream(id)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	snap := st.Snapshot()
	if snap.Type != "snapshot" {
		t.Fatalf("opening event for %s is %q: %+v", id, snap.Type, snap)
	}
	var sb strings.Builder
	for _, r := range snap.Results {
		fmt.Fprintf(&sb, "%s=%v;", r.ID, r.Score)
	}
	return sb.String()
}

// TestRecoverSubscriptionsAfterCrash is the kill -9 scenario for standing
// subscriptions: journaled registrations (and one unsubscribe) with no
// clean shutdown, then a fresh coordinator over the same durable data
// must re-register the live subscriptions — same ids, same specs, same
// shard routing, bit-identical snapshot scores — and must not resurrect
// the torn-down one. The recovered subscriptions must also still push:
// a post-recovery context change produces a delta event.
func TestRecoverSubscriptionsAfterCrash(t *testing.T) {
	dir := t.TempDir()
	a := newTestCoordinator(t, 4)
	if _, err := a.Recover(dir, journal.Options{}); err != nil {
		t.Fatal(err)
	}

	if _, err := a.SetSession("peter", sessionFor(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.SetSession("maria", sessionFor(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Subscribe("keep", serve.SubscriptionSpec{User: "peter", RankItem: serve.RankItem{Target: "TvProgram", TopK: 2}}); err != nil {
		t.Fatal(err)
	}
	minted, err := a.Subscribe("", serve.SubscriptionSpec{User: "maria", RankItem: serve.RankItem{Candidates: []string{"Oprah", "BBCNews"}, Threshold: 0.1}})
	if err != nil {
		t.Fatal(err)
	}
	// One subscription churns and is torn down: its Subscribe record must
	// not resurrect it on replay.
	if _, err := a.Subscribe("ghost", serve.SubscriptionSpec{User: "peter", RankItem: serve.RankItem{Target: "TvProgram"}}); err != nil {
		t.Fatal(err)
	}
	if found, err := a.Unsubscribe("ghost"); err != nil || !found {
		t.Fatalf("Unsubscribe ghost = (%v, %v)", found, err)
	}
	preKeep := streamScores(t, a, "keep")
	preMinted := streamScores(t, a, minted.ID)

	// Crash: journals deliberately left un-Closed; durability must come
	// from the per-record fsync discipline.
	b := newTestCoordinator(t, 4)
	rs, err := b.Recover(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.CloseJournals()
	// The ghost's Subscribe record is still in the WAL (compaction, not
	// replay, retires it), so replay sees 3 subscribes and the 1
	// unsubscribe that tears the ghost back down.
	if rs.Subscribes != 3 || rs.Unsubscribes != 1 || rs.Failed != 0 {
		t.Fatalf("recovery stats %+v, want 3 subscribes / 1 unsubscribe / 0 failed", rs)
	}

	subs := b.Subscriptions()
	if len(subs) != 2 {
		t.Fatalf("recovered %d subscriptions, want 2: %+v", len(subs), subs)
	}
	byID := make(map[string]serve.SubscriptionInfo, len(subs))
	for _, info := range subs {
		byID[info.ID] = info
	}
	if _, ok := byID["ghost"]; ok {
		t.Fatal("torn-down subscription resurrected by replay")
	}
	keep, ok := byID["keep"]
	if !ok {
		t.Fatalf("subscription keep missing after recovery: %+v", subs)
	}
	if keep.User != "peter" || keep.Target != "TvProgram" || keep.TopK != 2 {
		t.Fatalf("keep spec did not round-trip: %+v", keep)
	}
	if keep.Shard != b.ShardFor("peter") {
		t.Fatalf("keep routed to shard %d, want %d", keep.Shard, b.ShardFor("peter"))
	}
	m, ok := byID[minted.ID]
	if !ok {
		t.Fatalf("minted subscription %s missing after recovery", minted.ID)
	}
	if m.User != "maria" || len(m.Candidates) != 2 || m.Threshold != 0.1 {
		t.Fatalf("minted spec did not round-trip: %+v", m)
	}

	if got := streamScores(t, b, "keep"); got != preKeep {
		t.Fatalf("keep snapshot diverged after recovery:\npre:  %s\npost: %s", preKeep, got)
	}
	if got := streamScores(t, b, minted.ID); got != preMinted {
		t.Fatalf("minted snapshot diverged after recovery:\npre:  %s\npost: %s", preMinted, got)
	}

	// The recovered subscription is live, not a fossil: a context change
	// on the new coordinator must push a delta to an attached stream.
	st, err := b.SubscriptionStream("keep")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := b.SetSession("peter", sessionFor(4)); err != nil {
		t.Fatal(err)
	}
	select {
	case ev, open := <-st.Events():
		if !open {
			t.Fatal("recovered stream closed unexpectedly")
		}
		if ev.Type != "delta" || len(ev.Changes) == 0 {
			t.Fatalf("post-recovery event = %+v, want a delta with changes", ev)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no delta pushed after a post-recovery context change")
	}
}

// TestSubscriptionSurvivesCheckpoint pins the journal discipline the
// subscription subsystem depends on: snapshots never contain subscription
// state, so a checkpoint's WAL truncation must keep live Subscribe
// records (they are checkpoint-exempt) or a crash after a checkpoint
// would silently drop every standing query. Unsubscribed ones are retired
// by their in-log successor, not the checkpoint.
func TestSubscriptionSurvivesCheckpoint(t *testing.T) {
	dir := t.TempDir()
	a := newTestCoordinator(t, 4)
	if _, err := a.Recover(dir, journal.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.SetSession("peter", sessionFor(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Subscribe("stand", serve.SubscriptionSpec{User: "peter", RankItem: serve.RankItem{Target: "TvProgram"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Subscribe("gone", serve.SubscriptionSpec{User: "peter", RankItem: serve.RankItem{Target: "TvProgram"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Unsubscribe("gone"); err != nil {
		t.Fatal(err)
	}
	if err := a.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint traffic, then crash.
	if _, err := a.SetSession("peter", sessionFor(2)); err != nil {
		t.Fatal(err)
	}
	pre := streamScores(t, a, "stand")

	build, _, err := RestoreBuilder(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(4, build, serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := b.Recover(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.CloseJournals()
	if rs.Subscribes != 1 {
		t.Fatalf("recovery stats %+v, want exactly the one live subscription replayed", rs)
	}
	subs := b.Subscriptions()
	if len(subs) != 1 || subs[0].ID != "stand" {
		t.Fatalf("after checkpoint + crash: subscriptions %+v, want [stand]", subs)
	}
	if got := streamScores(t, b, "stand"); got != pre {
		t.Fatalf("stand snapshot diverged across checkpointed recovery:\npre:  %s\npost: %s", pre, got)
	}
}

// TestSubscriptionQuarantineRerouteAndMigration: a subscription created
// while its home shard is quarantined lands on the reroute replica (same
// jump-hash reroute sessions use), keeps serving streams from there, and
// migrates home when repair readmits the shard.
func TestSubscriptionQuarantineRerouteAndMigration(t *testing.T) {
	const n = 3
	dir := t.TempDir()
	c := newTestCoordinator(t, n)
	if _, err := c.Recover(dir, journal.Options{}); err != nil {
		t.Fatal(err)
	}
	defer c.CloseJournals()

	const bad = 1
	c.SetQuarantineAfter(2)
	in := faultinject.New(1)
	c.SetFaultInjector(in)
	shardSel := bad
	if err := in.Arm(faultinject.Fault{Point: faultinject.BroadcastApply, Shard: &shardSel, Err: "EIO"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // cross the quarantine threshold
		_, _ = c.Assert([]serve.ConceptAssertion{
			{Concept: "TvProgram", ID: fmt.Sprintf("Filler%d", i), Prob: 1},
		}, nil)
	}
	if q := c.Quarantined(); len(q) != 1 || q[0] != bad {
		t.Fatalf("quarantined = %v, want [%d]", q, bad)
	}

	u := userOnShard(t, n, bad)
	if _, err := c.SetSession(u, sessionFor(1)); err != nil {
		t.Fatal(err)
	}
	info, err := c.Subscribe("standby", serve.SubscriptionSpec{User: u, RankItem: serve.RankItem{Target: "TvProgram"}})
	if err != nil {
		t.Fatal(err)
	}
	if info.Shard == bad {
		t.Fatalf("subscription landed on the quarantined shard %d", bad)
	}
	alt := info.Shard
	if len(c.shards[alt].Subscriptions()) != 1 {
		t.Fatalf("subscription not registered on reroute replica %d", alt)
	}
	pre := streamScores(t, c, "standby")

	// Repair readmits the shard; the sweep must carry the subscription
	// home alongside the rerouted session.
	in.Clear()
	if err := c.ProbeHealth(); err != nil {
		t.Fatal(err)
	}
	if q := c.Quarantined(); len(q) != 0 {
		t.Fatalf("still quarantined after repair: %v", q)
	}
	if got := len(c.shards[bad].Subscriptions()); got != 1 {
		t.Fatalf("repaired home shard holds %d subscriptions, want 1", got)
	}
	if got := len(c.shards[alt].Subscriptions()); got != 0 {
		t.Fatalf("stale subscription left on replica %d after migration", alt)
	}
	subs := c.Subscriptions()
	if len(subs) != 1 || subs[0].ID != "standby" || subs[0].Shard != bad {
		t.Fatalf("after migration: %+v, want standby on shard %d", subs, bad)
	}
	if got := streamScores(t, c, "standby"); got != pre {
		t.Fatalf("snapshot diverged across migration:\npre:  %s\npost: %s", pre, got)
	}
}
