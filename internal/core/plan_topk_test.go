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
	l := mapping.NewLoader(db)
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
	plan, err := CompilePlan(l, "u", rules, nil)
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

// TestTopKRejected: negative TopK errors on every entry point.
func TestTopKRejected(t *testing.T) {
	plan, _ := tieSetup(t)
	if _, err := plan.Rank(PlanRequest{Target: dl.Atom("Doc"), TopK: -1}); err == nil {
		t.Fatal("negative TopK accepted by Plan.Rank")
	} else if !strings.Contains(err.Error(), "top-k must be positive") {
		t.Fatalf("unexpected error: %v", err)
	}
	l, rules := correlatedSetup(t)
	for _, r := range rankers(l) {
		if _, err := r.rank(Request{User: "u", Rules: rules, PlanRequest: PlanRequest{Target: dl.Atom("Doc"), TopK: -2}}); err == nil {
			t.Fatalf("negative TopK accepted by %s", r.name)
		}
	}
}

// TestRequestTopKAcrossRankers: Request.TopK must mean "first k of the
// full result" for every ranker, not just the plan path, and a negative one
// is refused by all of them.
func TestRequestTopKAcrossRankers(t *testing.T) {
	l, rules := correlatedSetup(t)
	for _, r := range rankers(l) {
		full, err := r.rank(Request{User: "u", Rules: rules, PlanRequest: PlanRequest{Target: dl.Atom("Doc")}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.rank(Request{User: "u", Rules: rules, PlanRequest: PlanRequest{Target: dl.Atom("Doc"), TopK: -1}}); err == nil {
			t.Fatalf("%s accepted top-k -1", r.name)
		}
		for k := 1; k <= len(full)+1; k++ {
			got, err := r.rank(Request{User: "u", Rules: rules, PlanRequest: PlanRequest{Target: dl.Atom("Doc"), TopK: k}})
			if err != nil {
				t.Fatal(err)
			}
			assertSameRanking(t, fmt.Sprintf("%s top-%d", r.name, k), got, full[:min(k, len(full))], 0)
		}
	}
}

// TestDocCacheInvalidatesOnRetire: the shared document side must not outlive
// the retirement of a data event it holds a probability of — the footprint
// diff reaches the rule's footprint, the side is derived again through
// Space.Prob, and every plan that reads it fails with "not declared" instead
// of serving the stale row: the plan that ranked before the retirement, another
// user's plan over the same side, and one compiled after it. Re-declaring the
// event with another probability brings all of them back, at the new value.
func TestDocCacheInvalidatesOnRetire(t *testing.T) {
	l, rules := correlatedSetup(t)
	space := l.DB().Space()
	if _, err := situation.New("v").Add("Kitchen", 0.5).ApplyOwned(l); err != nil {
		t.Fatal(err)
	}
	var plans []*Plan
	for _, user := range []string{"u", "v"} {
		plan, err := CompilePlan(l, user, rules, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := plan.Rank(PlanRequest{Target: dl.Atom("Doc")}); err != nil {
			t.Fatal(err)
		}
		plans = append(plans, plan)
	}
	if plans[0].docs != plans[1].docs {
		t.Fatal("two users' plans over the same rules read different document sides")
	}
	// d2's F1 membership hinges on solo_a, and r1 (F1) is active for both.
	if err := space.Retire("solo_a"); err != nil {
		t.Fatal(err)
	}
	for _, plan := range plans {
		if _, err := plan.Rank(PlanRequest{Target: dl.Atom("Doc")}); err == nil {
			t.Fatalf("%s's rank served a stale row across a retirement", plan.user)
		} else if !strings.Contains(err.Error(), "not declared") {
			t.Fatalf("%s: unexpected post-retire error: %v", plan.user, err)
		}
		if _, err := plan.Explain("d2"); err == nil || !strings.Contains(err.Error(), "not declared") {
			t.Fatalf("%s's explanation read a stale row across a retirement: %v", plan.user, err)
		}
	}
	if _, err := CompilePlan(l, "u", rules, nil); err == nil || !strings.Contains(err.Error(), "not declared") {
		t.Fatalf("compile over the retired event: %v", err)
	}
	if err := space.Declare("solo_a", 0.25); err != nil {
		t.Fatal(err)
	}
	for _, plan := range plans {
		got, err := plan.Rank(PlanRequest{Target: dl.Atom("Doc")})
		if err != nil {
			t.Fatalf("%s's rank after the event came back: %v", plan.user, err)
		}
		// The reference reads the context as it is now, which is what both
		// plans compiled.
		want, err := NewNaiveRanker(l).Rank(Request{User: plan.user, Rules: rules, PlanRequest: PlanRequest{Target: dl.Atom("Doc")}})
		if err != nil {
			t.Fatal(err)
		}
		assertSameScores(t, plan.user+" after re-declaration", got, want, 1e-9)
		ex, err := plan.Explain("d2")
		if err != nil {
			t.Fatal(err)
		}
		if ex.Rules[0].MemberProb != 0.25 {
			t.Fatalf("%s: P(d2 in F1) = %v after solo_a was re-declared at 0.25", plan.user, ex.Rules[0].MemberProb)
		}
	}
}

// TestExplainReportsTheScoredRow: an explanation's MemberProb is the entry of
// the document side's row the score was computed from, bit for bit, for
// members, non-members and rules inside a multi-rule cluster alike — and for a
// plan without a shared side, what it derives per candidate is the same value.
func TestExplainReportsTheScoredRow(t *testing.T) {
	l, rules := correlatedSetup(t)
	plan, err := CompilePlan(l, "u", rules, nil)
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{"d1", "d2", "d3", "nobody"}
	oneShot, err := compilePlan(l, "u", rules, map[string]bool{"d1": true, "d2": true, "d3": true, "nobody": true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Rank(PlanRequest{Candidates: ids}); err != nil {
		t.Fatal(err) // fills the joint table of r1 and r2, one cluster over "shared"
	}
	before := ReadHotPathStats().DocCacheMisses
	res, err := plan.Rank(PlanRequest{Candidates: ids, Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	if derived := ReadHotPathStats().DocCacheMisses - before; derived != 0 {
		t.Fatalf("explaining %d results derived %d document rows", len(res), derived)
	}
	docs := plan.docs.Probs()
	for _, r := range res {
		ex, err := oneShot.Explain(r.ID)
		if err != nil {
			t.Fatal(err)
		}
		for i, rc := range r.Explanation.Rules {
			if rc.Pruned {
				continue
			}
			if row := docs.Row(r.ID); rc.MemberProb != row[i] {
				t.Fatalf("%s, rule %s: explained P(member) = %v, the scored row holds %v", r.ID, rc.Rule, rc.MemberProb, row[i])
			}
			if rc != ex.Rules[i] {
				t.Fatalf("%s, rule %s: %+v from the shared side, %+v derived per candidate", r.ID, rc.Rule, rc, ex.Rules[i])
			}
		}
	}
}

// TestScratchNeverWritesTheSharedSide: one scratch arena serves plans with a
// shared document side, whose joint distributions it points into, and plans
// without, which derive theirs into the arena — never into what it points at.
func TestScratchNeverWritesTheSharedSide(t *testing.T) {
	l, rules := correlatedSetup(t)
	shared, err := CompilePlan(l, "u", rules, nil)
	if err != nil {
		t.Fatal(err)
	}
	oneShot, err := compilePlan(l, "u", rules, map[string]bool{"d1": true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sc := &PlanScratch{}
	all := PlanRequest{Target: dl.Atom("Doc")}
	first, err := shared.rankInto(sc, all)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]Result(nil), first...)
	// The arena now points at the row of the candidate scored last; d1's
	// distribution over r1 and r2 is another.
	if _, err := oneShot.rankInto(sc, PlanRequest{Candidates: []string{"d1"}}); err != nil {
		t.Fatal(err)
	}
	got, err := shared.rankInto(sc, all)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRanking(t, "shared plan after a one-shot plan used its scratch", got, want, 0)
}

// TestDocCacheSurvivesUnrelatedRetire: invalidations that leave every rule's
// document footprint alone — what another user's context apply is to a plan
// that outlives it — must not cost the document side a single row: it is
// re-stamped, not derived again, and the next retirement that does reach a
// footprint still is noticed.
func TestDocCacheSurvivesUnrelatedRetire(t *testing.T) {
	l, rules := correlatedSetup(t)
	space := l.DB().Space()
	plan, err := CompilePlan(l, "u", rules, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := plan.Rank(PlanRequest{Target: dl.Atom("Doc")})
	if err != nil {
		t.Fatal(err)
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
			t.Fatalf("round %d: an unrelated retirement derived %d document rows again", i, recomputed)
		}
	}
	if err := space.Retire("solo_a"); err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Rank(PlanRequest{Target: dl.Atom("Doc")}); err == nil || !strings.Contains(err.Error(), "not declared") {
		t.Fatalf("the re-stamped side outlived the retirement of a document event: %v", err)
	}
}

// TestPlanScratchDocCacheSoak hammers one plan from concurrent rankers —
// some through the pooled-scratch Rank, some through caller-owned
// rankInto arenas — while the session context churns underneath it,
// retiring the old epoch's ctx_* events and bumping the space generation
// on every apply. Every rank must keep returning the plan's compile-time
// ranking bit-for-bit (the context side is frozen; the document side is
// re-stamped by one reader while the others read it). A second leg adds what
// publication of a shared side needs: several users, and writes that replace
// it. Run under -race in CI.
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
	plan, err := CompilePlan(d.Loader, d.User, rules, nil)
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
			sc := &PlanScratch{}
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
					got, err = plan.rankInto(sc, PlanRequest{Target: dl.Atom("TvProgram"), TopK: 5})
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
	// the invalidation generation mid-traffic.
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

	// The same under the serving layer's contract — ranks in read sections, one
	// writer at a time — with what the lock-free leg cannot have: four readers
	// ranking a user each, whose plans all read one document side, while the
	// writer applies their contexts (another active rule set each time) and
	// asserts into a table every preference reads, traced and untraced. The
	// side is re-stamped, carried or rebuilt by whichever reader ranks first
	// after each write, and read by the others meanwhile; every rank must equal
	// the per-candidate mode's, which goes straight to Space.Prob.
	var state sync.RWMutex
	users := []string{"person0000", "person0001", "person0002", "person0003"}
	stop := make(chan struct{})
	failed := make(chan error, len(users))
	for _, user := range users {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rank := func() error {
				state.RLock()
				defer state.RUnlock()
				plan, err := CompilePlan(d.Loader, user, rules, nil)
				if err != nil {
					return err
				}
				got, err := plan.Rank(PlanRequest{Target: dl.Atom("TvProgram")})
				if err != nil {
					return err
				}
				want, err := perCandidateRank(d.Loader, Request{User: user, Rules: rules, PlanRequest: PlanRequest{Target: dl.Atom("TvProgram")}})
				if err != nil {
					return err
				}
				if len(got) != len(want) {
					return fmt.Errorf("%d results, want %d", len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						return fmt.Errorf("result %d = %s:%v, want %s:%v", i, got[i].ID, got[i].Score, want[i].ID, want[i].Score)
					}
				}
				return nil
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := rank(); err != nil {
					failed <- fmt.Errorf("%s: %w", user, err)
					return
				}
			}
		}()
	}
	for i := 0; i < 60; i++ {
		state.Lock()
		var err error
		switch i % 3 {
		case 0, 1:
			ctx := situation.New(users[i%len(users)])
			for j := 0; j < rulesN; j++ {
				if (i+j)%3 != 0 {
					ctx.Add(workload.BenchContextConcept(j), 0.5+0.1*float64(i%5))
				}
			}
			_, err = ctx.ApplyOwned(d.Loader)
		case 2:
			prog, genre := fmt.Sprintf("tv%03d", i%d.Spec.Programs), d.Genres[i%len(d.Genres)]
			if i%2 == 0 {
				err = d.Loader.AssertRole("hasGenre", prog, genre, nil)
			} else {
				_, err = d.Loader.DB().Exec(fmt.Sprintf("INSERT INTO r_hasGenre (src, dst, ev) VALUES ('%s', '%s', EV_TRUE())", prog, genre))
			}
		}
		state.Unlock()
		if err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-failed:
		t.Fatal(err)
	default:
	}
}
