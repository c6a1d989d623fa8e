package serve

import (
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"testing"
	"time"

	contextrank "repro"
	"repro/internal/faultinject"
	"repro/internal/serve/journal"
)

// standsCounts is what a write may cost the rankings that stand on a plan:
// rank-cache, plan-cache and subscription-evaluator work.
type standsCounts struct {
	hits, misses, revalidated, planMisses, evals, skipped int64
}

func countsOf(srv *Server) standsCounts {
	st := srv.Stats()
	return standsCounts{
		hits: st.Cache.Hits, misses: st.Cache.Misses, revalidated: st.Cache.Revalidated,
		planMisses: st.Plans.Misses, evals: st.Subs.Evals, skipped: st.Subs.Skipped,
	}
}

// TestUnreadAssertLeavesEveryRankingStanding: an assert into a concept that
// no rule's context or preference reads, and that the target does not read,
// moves the epoch and nothing any ranking stands on. A cut and an uncut
// ranking of the user are then both plain hits — no miss, no revalidation —
// no plan is compiled, and the user's subscription is skipped, not evaluated.
func TestUnreadAssertLeavesEveryRankingStanding(t *testing.T) {
	srv := NewServer(newTestSystem(t), Options{})
	defer srv.Close()
	if _, err := srv.Declare([]string{"Unrelated"}, nil, nil); err != nil {
		t.Fatal(err)
	}
	applyCtx(t, srv, "u", "CtxA", 0.9)
	if _, err := srv.Subscribe("s", SubscriptionSpec{User: "u", RankItem: RankItem{Target: "TvProgram", TopK: 3}}); err != nil {
		t.Fatal(err)
	}
	cut := contextrank.RankOptions{Limit: 3}
	uncut := contextrank.RankOptions{}
	want := make(map[int][]contextrank.Result)
	for i, opts := range []contextrank.RankOptions{cut, uncut} {
		res, _, err := srv.Rank("u", "TvProgram", opts)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	settleSubs(t, srv)
	before := countsOf(srv)
	epoch := srv.Facade().Epoch()

	if _, err := srv.Assert([]ConceptAssertion{{Concept: "Unrelated", ID: "tv01", Prob: 1}}, nil); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); countsOf(srv).evals+countsOf(srv).skipped == before.evals+before.skipped; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the evaluator took no pass after the assert")
		}
	}
	settleSubs(t, srv)
	metas := make([]RankMeta, 2)
	for i, opts := range []contextrank.RankOptions{cut, uncut} {
		res, meta, err := srv.Rank("u", "TvProgram", opts)
		if err != nil || !slices.Equal(res, want[i]) {
			t.Fatalf("rank %+v after the assert: err %v, results %v, want %v", opts, err, res, want[i])
		}
		metas[i] = meta
	}
	after := countsOf(srv)
	d := standsCounts{
		hits: after.hits - before.hits, misses: after.misses - before.misses, revalidated: after.revalidated - before.revalidated,
		planMisses: after.planMisses - before.planMisses, evals: after.evals - before.evals, skipped: after.skipped - before.skipped,
	}
	if d.hits != 2 || d.misses != 0 || d.revalidated != 0 || d.planMisses != 0 || d.evals != 0 || d.skipped < 1 {
		t.Fatalf("after the assert: %+v; want rank-cache hits +2, misses, revalidated, plan misses and evals +0, skipped at least +1", d)
	}
	for _, meta := range metas {
		if !meta.Cached || meta.Epoch != epoch+1 {
			t.Fatalf("rank after the assert: cached %v at epoch %d, want a hit at %d", meta.Cached, meta.Epoch, epoch+1)
		}
	}
}

// TestIdenticalPutIsANoOp: a PUT of the measurements the session already
// holds applies nothing — it journals no record, compiles no plan and
// evaluates no subscription — and the user's rankings stay cached.
func TestIdenticalPutIsANoOp(t *testing.T) {
	srv := NewServer(newTestSystem(t), Options{})
	defer srv.Close()
	attachTestJournal(t, srv, journal.Options{})
	ms := []Measurement{{Concept: "CtxA", Prob: 0.7}, {Concept: "CtxB", Prob: 0.4, Source: "beacon"}}
	fp, err := srv.SetSession("u", ms)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Subscribe("s", SubscriptionSpec{User: "u", RankItem: RankItem{Target: "TvProgram"}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := srv.Rank("u", "TvProgram", contextrank.RankOptions{}); err != nil {
		t.Fatal(err)
	}
	settleSubs(t, srv)
	before, appends := countsOf(srv), srv.Stats().Journal.Appends

	again, err := srv.SetSession("u", slices.Clone(ms))
	if err != nil || again != fp {
		t.Fatalf("identical PUT: fingerprint %q -> %q, err %v", fp, again, err)
	}
	settleSubs(t, srv)
	if _, meta, err := srv.Rank("u", "TvProgram", contextrank.RankOptions{}); err != nil || !meta.Cached {
		t.Fatalf("rank after an identical PUT: cached %v, err %v", meta.Cached, err)
	}
	after := countsOf(srv)
	if d := srv.Stats().Journal.Appends - appends; d != 0 {
		t.Fatalf("identical PUT journaled %d records", d)
	}
	if after.planMisses != before.planMisses || after.evals != before.evals {
		t.Fatalf("identical PUT: %d plan compiles, %d subscription evaluations; want 0 and 0",
			after.planMisses-before.planMisses, after.evals-before.evals)
	}

	// Another sensor name is another PUT: it is applied and journaled.
	ms[1].Source = "camera"
	if _, err := srv.SetSession("u", ms); err != nil {
		t.Fatal(err)
	}
	if d := srv.Stats().Journal.Appends - appends; d != 1 {
		t.Fatalf("a PUT naming another source journaled %d records, want 1", d)
	}
	if got, _, _ := srv.SessionInfo("u"); got[1].Source != "camera" {
		t.Fatalf("session holds source %q after the PUT", got[1].Source)
	}
}

// TestIdenticalPutSyncFailure: a repeat PUT whose durability barrier fails
// is refused as not journaled. It applied nothing, so it adds no record to
// the degraded mode's unjournaled tail — a Set there would carry no
// fingerprint and be re-journaled by the next probe — but it engages
// degraded mode, since the journal refuses every write until a probe resets
// it; after the probe the same PUT is acknowledged.
func TestIdenticalPutSyncFailure(t *testing.T) {
	in := faultinject.New(1)
	srv := NewServer(newTestSystem(t), Options{DegradeOnDiskError: true})
	defer srv.Close()
	j, _, err := journal.Open(filepath.Join(t.TempDir(), "sessions.wal"), journal.Options{FS: faultinject.FS(in, nil)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	srv.AttachJournal(j)
	ms := []Measurement{{Concept: "CtxA", Prob: 0.7}}
	if _, err := srv.SetSession("u", ms); err != nil {
		t.Fatal(err)
	}
	if err := in.Arm(faultinject.Fault{Point: faultinject.FSSync, Err: "EIO"}); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.SetSession("u", slices.Clone(ms)); !errors.Is(err, ErrNotJournaled) {
		t.Fatalf("identical PUT over a failing sync: err %v, want ErrNotJournaled", err)
	}
	if srv.health.tailLen.Load() != 0 || !srv.Degraded() {
		t.Fatalf("identical PUT over a failing sync: %d unjournaled records noted, degraded %v; want 0 and degraded",
			srv.health.tailLen.Load(), srv.Degraded())
	}
	in.Clear()
	if err := srv.ProbeDisk(); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.SetSession("u", slices.Clone(ms)); err != nil {
		t.Fatalf("identical PUT after the probe: %v", err)
	}
}

// TestRankCacheHitsPastPlanCacheFloor: a filed ranking stands only while its
// user's plan entry is cached, so the plan LRU holds as many users as the
// rank cache holds rankings. More users than planCacheSize ranking in
// rotation on a default-sized rank cache are all plain hits on the second
// round, with no plan compiled; at planCacheSize plans they would all miss.
func TestRankCacheHitsPastPlanCacheFloor(t *testing.T) {
	const users = planCacheSize + 44
	srv := NewServer(newTestSystem(t), Options{})
	defer srv.Close()
	for u := 0; u < users; u++ {
		applyCtx(t, srv, fmt.Sprintf("u%03d", u), "CtxA", 0.5+float64(u)/(4*users))
	}
	for round := 0; round < 2; round++ {
		before := countsOf(srv)
		for u := 0; u < users; u++ {
			if _, _, err := srv.Rank(fmt.Sprintf("u%03d", u), "TvProgram", contextrank.RankOptions{TopK: 3}); err != nil {
				t.Fatal(err)
			}
		}
		if round == 0 {
			continue
		}
		after := countsOf(srv)
		if d := after.hits - before.hits; d != users || after.planMisses != before.planMisses {
			t.Fatalf("second round of %d users: %d hits, %d plan compiles; want %d and 0",
				users, d, after.planMisses-before.planMisses, users)
		}
	}
}
