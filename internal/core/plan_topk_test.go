package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/dl"
	"repro/internal/engine"
	"repro/internal/event"
	"repro/internal/mapping"
	"repro/internal/prefs"
	"repro/internal/situation"
	"repro/internal/workload"
)

// tieSetup builds a catalog engineered for score ties: docs come in
// feature-identical pairs, so the rank order is decided by the ID
// tie-break for half the comparisons — exactly what the top-k heap must
// reproduce bit-identically against the full sort.
func tieSetup(t *testing.T) (*Plan, int) {
	t.Helper()
	db := engine.New()
	l := mapping.NewLoader(db, nil)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []string{"Doc", "FA", "FB"} {
		must(l.DeclareConcept(c))
	}
	must(db.Space().Declare("maybe", 0.6))
	const n = 12
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("d%02d", i)
		must(l.AssertConcept("Doc", id, nil))
		switch i % 3 { // three score classes, four docs each
		case 0:
			must(l.AssertConcept("FA", id, nil))
		case 1:
			must(l.AssertConcept("FB", id, event.Basic("maybe")))
		}
	}
	must(situation.New("u").Certain("Ctx").Apply(l))
	rules := []prefs.Rule{
		{Name: "ra", Context: dl.Atom("Ctx"), Preference: dl.Atom("FA"), Sigma: 0.9},
		{Name: "rb", Context: dl.Atom("Ctx"), Preference: dl.Atom("FB"), Sigma: 0.7},
	}
	plan, err := CompilePlan(l, "u", rules)
	if err != nil {
		t.Fatal(err)
	}
	return plan, n
}

// TestTopKMatchesFullSort: Plan.Rank with TopK=k must return exactly the
// first k of the full-sort result — same order, same scores, same ID
// tie-breaking — and k ≥ n must degrade to the full sort.
func TestTopKMatchesFullSort(t *testing.T) {
	plan, n := tieSetup(t)
	req := PlanRequest{Target: dl.Atom("Doc")}
	full, err := plan.Rank(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != n {
		t.Fatalf("full rank returned %d results, want %d", len(full), n)
	}
	ties := 0
	for i := 1; i < len(full); i++ {
		if full[i].Score == full[i-1].Score {
			ties++
		}
	}
	if ties < n/2 {
		t.Fatalf("only %d tied adjacent pairs; the tie-break isn't being exercised", ties)
	}
	for _, k := range []int{1, 2, 3, 5, n - 1, n, n + 7} {
		req.TopK = k
		got, err := plan.Rank(req)
		if err != nil {
			t.Fatal(err)
		}
		want := full[:min(k, n)]
		assertSameRanking(t, fmt.Sprintf("top-%d vs full-sort prefix", k), got, want, 0)
	}
}

// TestTopKWithLimitAndThreshold: TopK composes with the other request
// knobs exactly as truncating the full-sort result would.
func TestTopKWithLimitAndThreshold(t *testing.T) {
	plan, n := tieSetup(t)
	full, err := plan.Rank(PlanRequest{Target: dl.Atom("Doc")})
	if err != nil {
		t.Fatal(err)
	}
	// The smaller of Limit and TopK wins, in either order.
	for _, c := range []struct{ topk, limit, want int }{
		{5, 3, 3}, {3, 5, 3}, {n + 1, 4, 4}, {4, 0, 4},
	} {
		got, err := plan.Rank(PlanRequest{Target: dl.Atom("Doc"), TopK: c.topk, Limit: c.limit})
		if err != nil {
			t.Fatal(err)
		}
		assertSameRanking(t, fmt.Sprintf("topk=%d limit=%d", c.topk, c.limit), got, full[:c.want], 0)
	}
	// Threshold filters before selection: the heap keeps the best k of the
	// survivors, which equals the thresholded full sort's prefix.
	cut := full[len(full)/2].Score
	fullCut, err := plan.Rank(PlanRequest{Target: dl.Atom("Doc"), Threshold: cut})
	if err != nil {
		t.Fatal(err)
	}
	got, err := plan.Rank(PlanRequest{Target: dl.Atom("Doc"), Threshold: cut, TopK: 2})
	if err != nil {
		t.Fatal(err)
	}
	assertSameRanking(t, "threshold+topk", got, fullCut[:min(2, len(fullCut))], 0)
}

// TestTopKRejected: negative TopK errors on every entry point; a nil
// scratch errors on RankInto.
func TestTopKRejected(t *testing.T) {
	plan, _ := tieSetup(t)
	if _, err := plan.Rank(PlanRequest{Target: dl.Atom("Doc"), TopK: -1}); err == nil {
		t.Fatal("negative TopK accepted by Plan.Rank")
	} else if !strings.Contains(err.Error(), "top-k must be positive") {
		t.Fatalf("unexpected error: %v", err)
	}
	if _, err := plan.RankInto(nil, PlanRequest{Target: dl.Atom("Doc")}); err == nil {
		t.Fatal("nil scratch accepted by RankInto")
	}
	l, rules := correlatedSetup(t)
	for _, ranker := range []Ranker{NewNaiveRanker(l), NewFactorizedRanker(l)} {
		if _, err := ranker.Rank(Request{User: "u", Rules: rules, PlanRequest: PlanRequest{Target: dl.Atom("Doc"), TopK: -2}}); err == nil {
			t.Fatalf("negative TopK accepted by %s", ranker.Name())
		}
	}
}

// TestRequestTopKAcrossRankers: Request.TopK must mean "first k of the
// full result" for every ranker, not just the plan path.
func TestRequestTopKAcrossRankers(t *testing.T) {
	l, rules := correlatedSetup(t)
	for _, ranker := range []Ranker{NewNaiveRanker(l), NewFactorizedRanker(l)} {
		full, err := ranker.Rank(Request{User: "u", Rules: rules, PlanRequest: PlanRequest{Target: dl.Atom("Doc")}})
		if err != nil {
			t.Fatal(err)
		}
		for k := 1; k <= len(full)+1; k++ {
			got, err := ranker.Rank(Request{User: "u", Rules: rules, PlanRequest: PlanRequest{Target: dl.Atom("Doc"), TopK: k}})
			if err != nil {
				t.Fatal(err)
			}
			assertSameRanking(t, fmt.Sprintf("%s top-%d", ranker.Name(), k), got, full[:min(k, len(full))], 0)
		}
	}
}

// TestDocCacheInvalidatesOnRetire: a warm document-distribution cache must
// not outlive the retirement of a data event the plan depends on — the
// generation bump wipes it, and the recompute surfaces "not declared"
// instead of serving a stale score.
func TestDocCacheInvalidatesOnRetire(t *testing.T) {
	l, rules := correlatedSetup(t)
	plan, err := CompilePlan(l, "u", rules)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Rank(PlanRequest{Target: dl.Atom("Doc")}); err != nil {
		t.Fatal(err) // warm the cache
	}
	// d2's F1 membership hinges on solo_a; retiring it invalidates d2's
	// cached distribution.
	if err := l.DB().Space().Retire("solo_a"); err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Rank(PlanRequest{Target: dl.Atom("Doc")}); err == nil {
		t.Fatal("rank served stale cached distributions across a retirement")
	} else if !strings.Contains(err.Error(), "not declared") {
		t.Fatalf("unexpected post-retire error: %v", err)
	}
}

// TestDocCacheSurvivesUnrelatedRetire: invalidations that leave every active
// rule's document footprint alone — what another user's context apply is to
// a plan that outlives it — must not cost the warm distributions: the cache
// is re-stamped, not wiped, and the next retirement that does reach the
// footprint still wipes it.
func TestDocCacheSurvivesUnrelatedRetire(t *testing.T) {
	l, rules := correlatedSetup(t)
	space := l.DB().Space()
	plan, err := CompilePlan(l, "u", rules)
	if err != nil {
		t.Fatal(err)
	}
	want, err := plan.Rank(PlanRequest{Target: dl.Atom("Doc")})
	if err != nil {
		t.Fatal(err) // warm the cache
	}
	for i := 0; i < 3; i++ {
		other := fmt.Sprintf("ctx_other_%d", i)
		group := []string{other + "_k", other + "_o"}
		if err := space.Declare(other, 0.3); err != nil {
			t.Fatal(err)
		}
		if err := space.DeclareExclusive(group, []float64{0.5, 0.4}); err != nil {
			t.Fatal(err)
		}
		if err := space.Retire(append(group, other)...); err != nil {
			t.Fatal(err)
		}
		misses := ReadHotPathStats().DocCacheMisses
		got, err := plan.Rank(PlanRequest{Target: dl.Atom("Doc")})
		if err != nil {
			t.Fatal(err)
		}
		assertSameRanking(t, "rank across an unrelated retirement", got, want, 0)
		if recomputed := ReadHotPathStats().DocCacheMisses - misses; recomputed != 0 {
			t.Fatalf("round %d: an unrelated retirement recomputed %d document distributions", i, recomputed)
		}
	}
	if err := space.Retire("solo_a"); err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Rank(PlanRequest{Target: dl.Atom("Doc")}); err == nil || !strings.Contains(err.Error(), "not declared") {
		t.Fatalf("re-stamped cache outlived the retirement of a document event: %v", err)
	}
}

// TestPlanScratchDocCacheSoak hammers one plan from concurrent rankers —
// some through the pooled-scratch Rank, some through caller-owned
// RankInto arenas — while the session context churns underneath it,
// retiring the old epoch's ctx_* events and bumping the space generation
// on every apply. Every rank must keep returning the plan's compile-time
// ranking bit-for-bit (the context side is frozen; the doc side recomputes
// to identical values after each wipe). Run under -race in CI.
func TestPlanScratchDocCacheSoak(t *testing.T) {
	const rulesN = 4
	d, err := workload.Generate(workload.SmallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.ApplyBenchContext(rulesN, false); err != nil {
		t.Fatal(err)
	}
	rules, err := d.Rules(rulesN)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := CompilePlan(d.Loader, d.User, rules)
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := plan.Rank(PlanRequest{Target: dl.Atom("TvProgram")})
	if err != nil {
		t.Fatal(err)
	}

	const workers = 4
	done := make(chan struct{})
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sc := NewPlanScratch()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				var got []Result
				var err error
				if w%2 == 0 {
					got, err = plan.Rank(PlanRequest{Target: dl.Atom("TvProgram")})
				} else {
					got, err = plan.RankInto(sc, PlanRequest{Target: dl.Atom("TvProgram"), TopK: 5})
				}
				if err != nil {
					errs <- fmt.Errorf("worker %d rank %d: %w", w, i, err)
					return
				}
				want := baseline
				if w%2 != 0 {
					want = baseline[:5]
				}
				if len(got) != len(want) {
					errs <- fmt.Errorf("worker %d rank %d: %d results, want %d", w, i, len(got), len(want))
					return
				}
				for j := range want {
					if got[j].ID != want[j].ID || got[j].Score != want[j].Score {
						errs <- fmt.Errorf("worker %d rank %d drifted at %d: %s:%v, want %s:%v",
							w, i, j, got[j].ID, got[j].Score, want[j].ID, want[j].Score)
						return
					}
				}
			}
		}(w)
	}
	// Churn: every apply retires the previous epoch's ctx events and bumps
	// the invalidation generation, wiping the doc cache mid-traffic.
	for i := 0; i < 15; i++ {
		if err := d.ApplyBenchContext(rulesN, i%2 == 0); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}
