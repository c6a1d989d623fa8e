package serve

import (
	"testing"

	contextrank "repro"
)

// TestUncachedRankAllocs pins what a rank-cache miss that hits the plan cache
// allocates, at 64 sessions: the served cold rank. Two users take turns on a
// one-entry rank cache, so every rank misses it, while both users' plans stay
// cached. The target is a repeated 3-conjunct text: found in the membership
// memo by its text, it is not parsed again, and the results are written
// without reflection.
func TestUncachedRankAllocs(t *testing.T) {
	const sessions, runs = 64, 50
	const target = "TvProgram AND EXISTS hasGenre.{genre03} AND EXISTS hasSubject.{subject2}"
	srv := applyServer(t, sessions)
	srv.cache = newRankCache(1)
	users := []string{"person0000", "person0001"}
	opts := contextrank.RankOptions{TopK: 10}
	for _, u := range users {
		if res, _, err := srv.Rank(u, target, opts); err != nil || len(res) == 0 {
			t.Fatalf("warm-up rank for %s: %v results, %v", u, len(res), err)
		}
	}
	before := srv.Stats()
	next := 0
	reusedPlanCheckPaused.Store(true)
	defer reusedPlanCheckPaused.Store(false)
	allocs := testing.AllocsPerRun(runs, func() {
		_, meta, err := srv.Rank(users[next%2], target, opts)
		if err != nil {
			t.Fatal(err)
		}
		if meta.Cached {
			t.Fatal("a rank hit the one-entry rank cache")
		}
		next++
	})
	after := srv.Stats()
	if compiles := after.Plans.Misses - before.Plans.Misses; compiles != 0 {
		t.Fatalf("%d plan compiles during the measured ranks, want 0", compiles)
	}
	t.Logf("%.0f allocs per uncached Rank", allocs)
	if allocs > 12 {
		t.Fatalf("one uncached rank of a repeated target at %d sessions allocates %.0f times, want ≤ 12", sessions, allocs)
	}
}
