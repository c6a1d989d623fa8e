package core

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/dl"
	"repro/internal/engine"
	"repro/internal/event"
	"repro/internal/mapping"
	"repro/internal/prefs"
	"repro/internal/situation"
	"repro/internal/workload"
)

// assertSameRanking fails unless the two result lists agree in order, ids
// and scores (within eps — the plan may associate floating-point products
// differently than the reference when its candidate-independent partition
// is coarser than the per-candidate one).
func assertSameRanking(t *testing.T, label string, got, want []Result, eps float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || math.Abs(got[i].Score-want[i].Score) > eps {
			t.Fatalf("%s: result %d = %s:%g, want %s:%g",
				label, i, got[i].ID, got[i].Score, want[i].ID, want[i].Score)
		}
	}
}

// correlatedSetup builds a small space exercising every structure the plan
// compiler must honour: an exclusive sensor group in the context, two rules
// whose preferences share a basic event (a correlated doc cluster), an
// independent rule, and a rule whose context cannot apply (pruned).
func correlatedSetup(t *testing.T) (*mapping.Loader, []prefs.Rule) {
	t.Helper()
	db := engine.New()
	l := mapping.NewLoader(db)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []string{"Doc", "F1", "F2", "F3"} {
		must(l.DeclareConcept(c))
	}
	must(db.Space().Declare("shared", 0.6))
	must(db.Space().Declare("solo_a", 0.7))
	must(db.Space().Declare("solo_b", 0.4))
	for _, d := range []string{"d1", "d2", "d3"} {
		must(l.AssertConcept("Doc", d, nil))
	}
	// d1's F1 and F2 hinge on one event (correlated cluster); d2 carries
	// independent uncertainty; d3 carries nothing.
	must(l.AssertConcept("F1", "d1", event.Basic("shared")))
	must(l.AssertConcept("F2", "d1", event.Basic("shared")))
	must(l.AssertConcept("F1", "d2", event.Basic("solo_a")))
	must(l.AssertConcept("F3", "d2", event.Basic("solo_b")))
	// Context: an exclusive location group plus an uncertain independent
	// concept. "Nowhere" stays unasserted so its rule prunes.
	ctx := situation.New("u").
		AddExclusive("location", []string{"Kitchen", "Living"}, []float64{0.55, 0.35}).
		Add("Weekend", 0.8)
	must(ctx.Apply(l))
	rules := []prefs.Rule{
		{Name: "r1", Context: dl.Atom("Kitchen"), Preference: dl.Atom("F1"), Sigma: 0.9},
		{Name: "r2", Context: dl.Atom("Living"), Preference: dl.Atom("F2"), Sigma: 0.7},
		{Name: "r3", Context: dl.Atom("Weekend"), Preference: dl.Atom("F3"), Sigma: 0.65},
		{Name: "r4", Context: dl.Atom("Nowhere"), Preference: dl.Atom("F1"), Sigma: 0.3},
	}
	must(l.DeclareConcept("Nowhere"))
	return l, rules
}

// TestPlanMatchesNaive checks the compiled plan against the literal §3.3
// reference over correlated doc clusters, an exclusive context sensor
// group, an independent rule and a pruned rule — including Explain.
func TestPlanMatchesNaive(t *testing.T) {
	l, rules := correlatedSetup(t)
	req := Request{User: "u", Rules: rules, PlanRequest: PlanRequest{Target: dl.Atom("Doc"), Explain: true}}

	naive, err := NewNaiveRanker(l).Rank(req)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := CompilePlan(l, "u", rules)
	if err != nil {
		t.Fatal(err)
	}
	got, err := plan.Rank(PlanRequest{Target: dl.Atom("Doc"), Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	assertSameRanking(t, "plan vs naive", got, naive, 1e-9)

	// The pruned rule must appear as such in the plan's explanations.
	for _, res := range got {
		var sawPruned bool
		if res.Explanation == nil || len(res.Explanation.Rules) != len(rules) {
			t.Fatalf("explanation missing rules for %s", res.ID)
		}
		for _, rc := range res.Explanation.Rules {
			if rc.Rule == "r4" {
				sawPruned = rc.Pruned
			}
		}
		if !sawPruned {
			t.Fatalf("rule r4 not pruned in %s's explanation", res.ID)
		}
	}

	// The same request through the (now plan-backed) factorized ranker.
	fact, err := NewFactorizedRanker(l).Rank(req)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRanking(t, "factorized vs naive", fact, naive, 1e-9)

	// And in per-candidate mode, where r1's and r2's contexts (one exclusive
	// group) stay one cluster for d2 and d3, which neither preference holds.
	perCand, err := perCandidateRank(l, req)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRanking(t, "per-candidate vs naive", perCand, naive, 1e-9)
}

// TestPlanMatchesLegacyFactorized compares the compiled plan against the
// retained per-candidate implementation on the TV-watcher workload with
// uncertain context (no pruning) and uncertain features.
func TestPlanMatchesLegacyFactorized(t *testing.T) {
	const k = 6
	d, err := workload.Generate(workload.SmallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.ApplyBenchContext(k, false); err != nil {
		t.Fatal(err)
	}
	rules, err := d.Rules(k)
	if err != nil {
		t.Fatal(err)
	}
	req := Request{User: d.User, Rules: rules, PlanRequest: PlanRequest{Target: dl.Atom("TvProgram"), Explain: true}}
	ranker := NewFactorizedRanker(d.Loader)

	legacy, err := perCandidateRank(d.Loader, req)
	if err != nil {
		t.Fatal(err)
	}
	planned, err := ranker.Rank(req)
	if err != nil {
		t.Fatal(err)
	}
	// Compare per-candidate scores by id: the plan's candidate-independent
	// partition can associate float products differently, which may swap
	// candidates whose scores tie to ~1e-17 in the sorted order.
	assertSameScores(t, "plan vs legacy", planned, legacy, 1e-12)
	legacyEx := make(map[string]*Explanation, len(legacy))
	for _, r := range legacy {
		legacyEx[r.ID] = r.Explanation
	}
	for _, r := range planned {
		le, pe := legacyEx[r.ID], r.Explanation
		if le == nil || len(le.Rules) != len(pe.Rules) {
			t.Fatalf("explanation length mismatch for %s", r.ID)
		}
		for j := range le.Rules {
			if le.Rules[j] != pe.Rules[j] {
				t.Fatalf("explanation mismatch for %s rule %d: %+v vs %+v",
					r.ID, j, le.Rules[j], pe.Rules[j])
			}
		}
	}

	// Explicit candidate lists rank identically too (the §5 shape).
	ids := []string{"tv000", "tv003", "tv007", "no-such-doc"}
	legacy, err = perCandidateRank(d.Loader, Request{User: d.User, Rules: rules, PlanRequest: PlanRequest{Candidates: ids}})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := CompilePlan(d.Loader, d.User, rules)
	if err != nil {
		t.Fatal(err)
	}
	planned, err = plan.Rank(PlanRequest{Candidates: ids})
	if err != nil {
		t.Fatal(err)
	}
	assertSameScores(t, "plan vs legacy candidates", planned, legacy, 1e-12)
}

// perCandidateRank ranks req with a plan forced into per-candidate mode —
// the pre-plan implementation, kept as the second executable reference.
func perCandidateRank(l *mapping.Loader, req Request) ([]Result, error) {
	plan, err := perCandidatePlan(l, req.User, req.Rules)
	if err != nil {
		return nil, err
	}
	return plan.Rank(req.PlanRequest)
}

// assertSameScores compares two result lists candidate by candidate,
// ignoring order differences between equal-scored candidates.
func assertSameScores(t *testing.T, label string, got, want []Result, eps float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	scores := make(map[string]float64, len(want))
	for _, r := range want {
		scores[r.ID] = r.Score
	}
	for _, r := range got {
		w, ok := scores[r.ID]
		if !ok || math.Abs(r.Score-w) > eps {
			t.Fatalf("%s: %s = %g, want %g", label, r.ID, r.Score, w)
		}
	}
}

// TestPlanAfterRetire pins the plan's context-epoch contract across a
// context re-apply (which retires the previous epoch's ctx_* events): the
// stale plan keeps answering with its compile-time context distribution —
// it froze those probabilities, so it cannot notice the retirement — and a
// fresh compile matches the reference under the new context. Callers that
// reuse plans must invalidate on every context epoch (the serve plan cache
// keys by it).
func TestPlanAfterRetire(t *testing.T) {
	d, err := workload.Generate(workload.SmallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.ApplyBenchContext(4, false); err != nil {
		t.Fatal(err)
	}
	rules, err := d.Rules(4)
	if err != nil {
		t.Fatal(err)
	}
	stale, err := CompilePlan(d.Loader, d.User, rules)
	if err != nil {
		t.Fatal(err)
	}
	before, err := stale.Rank(PlanRequest{Target: dl.Atom("TvProgram")})
	if err != nil {
		t.Fatal(err)
	}

	// New context epoch with different probabilities (certain instead of
	// 0.9): the old ctx_* events are retired and the distribution changes.
	if err := d.ApplyBenchContext(4, true); err != nil {
		t.Fatal(err)
	}
	after, err := stale.Rank(PlanRequest{Target: dl.Atom("TvProgram")})
	if err != nil {
		t.Fatal(err)
	}
	assertSameRanking(t, "stale plan drifted from its compile-time context", after, before, 0)

	fresh, err := CompilePlan(d.Loader, d.User, rules)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fresh.Rank(PlanRequest{Target: dl.Atom("TvProgram")})
	if err != nil {
		t.Fatal(err)
	}
	naive, err := NewNaiveRanker(d.Loader).Rank(Request{User: d.User, Rules: rules, PlanRequest: PlanRequest{Target: dl.Atom("TvProgram")}})
	if err != nil {
		t.Fatal(err)
	}
	assertSameRanking(t, "post-retire plan vs naive", got, naive, 1e-9)
	// The context really changed: certain context must produce different
	// scores than the stale 0.9-context plan for at least one candidate.
	drifted := false
	for i := range got {
		if got[i].ID != before[i].ID || math.Abs(got[i].Score-before[i].Score) > 1e-9 {
			drifted = true
			break
		}
	}
	if !drifted {
		t.Fatal("re-applied context produced identical scores; test lost its teeth")
	}
}

// TestPlanClusterBound: more mutually correlated rules than the exact
// enumeration bound compile into a per-candidate plan, and — every rule
// genuinely sharing one event — that plan fails per candidate with
// ErrClusterBound, like the pre-plan path always did.
func TestPlanClusterBound(t *testing.T) {
	db := engine.New()
	l := mapping.NewLoader(db)
	if err := l.DeclareConcept("Doc"); err != nil {
		t.Fatal(err)
	}
	if err := db.Space().Declare("shared", 0.5); err != nil {
		t.Fatal(err)
	}
	if err := l.AssertConcept("Doc", "d", nil); err != nil {
		t.Fatal(err)
	}
	if err := situation.New("u").Certain("Ctx").Apply(l); err != nil {
		t.Fatal(err)
	}
	var rules []prefs.Rule
	for i := 0; i < maxClusterRules+1; i++ {
		c := string(rune('A' + i))
		if err := l.DeclareConcept("F" + c); err != nil {
			t.Fatal(err)
		}
		// Every preference hinges on the same event: one giant cluster.
		if err := l.AssertConcept("F"+c, "d", event.Basic("shared")); err != nil {
			t.Fatal(err)
		}
		rules = append(rules, prefs.Rule{Name: "r" + c, Context: dl.Atom("Ctx"), Preference: dl.Atom("F" + c), Sigma: 0.6})
	}
	plan, err := CompilePlan(l, "u", rules)
	if err != nil {
		t.Fatalf("oversized footprint cluster did not compile into per-candidate mode: %v", err)
	}
	if !plan.perCandidate {
		t.Fatal("oversized footprint cluster compiled into the enumerating mode")
	}
	if _, err := plan.Score("d"); !errors.Is(err, ErrClusterBound) {
		t.Fatalf("genuinely oversized cluster scored: err = %v, want ErrClusterBound", err)
	}
	if _, err := NewFactorizedRanker(l).Rank(Request{User: "u", Rules: rules, PlanRequest: PlanRequest{Target: dl.Atom("Doc")}}); !errors.Is(err, ErrClusterBound) {
		t.Fatalf("genuinely oversized cluster ranked: err = %v, want ErrClusterBound", err)
	}
}

// TestPlanClusterBoundFallback: rules chained together only through
// *different* documents' events exceed the bound under the coarse
// footprint partition but stay in ≤2-rule clusters per candidate — the plan
// must compile into per-candidate mode and rank exactly like the reference,
// for targets, candidate lists, group members and explanations alike.
func TestPlanClusterBoundFallback(t *testing.T) {
	db := engine.New()
	l := mapping.NewLoader(db)
	if err := l.DeclareConcept("Doc"); err != nil {
		t.Fatal(err)
	}
	if err := situation.New("u").Certain("Ctx").Apply(l); err != nil {
		t.Fatal(err)
	}
	n := maxClusterRules + 1
	var rules []prefs.Rule
	for i := 0; i < n; i++ {
		if err := l.DeclareConcept(fmt.Sprintf("F%02d", i)); err != nil {
			t.Fatal(err)
		}
		if err := db.Space().Declare(fmt.Sprintf("e%02d", i), 0.5); err != nil {
			t.Fatal(err)
		}
		rules = append(rules, prefs.Rule{
			Name: fmt.Sprintf("r%02d", i), Context: dl.Atom("Ctx"),
			Preference: dl.Atom(fmt.Sprintf("F%02d", i)), Sigma: 0.6,
		})
	}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("d%02d", i)
		if err := l.AssertConcept("Doc", id, nil); err != nil {
			t.Fatal(err)
		}
		// Document d_i carries features F_i and F_{i+1}, both hinging on
		// e_i: rules i and i+1 couple through d_i, chaining all rules into
		// one coarse cluster while any single candidate couples only two.
		ev := event.Basic(fmt.Sprintf("e%02d", i))
		if err := l.AssertConcept(fmt.Sprintf("F%02d", i), id, ev); err != nil {
			t.Fatal(err)
		}
		if i+1 < n {
			if err := l.AssertConcept(fmt.Sprintf("F%02d", i+1), id, ev); err != nil {
				t.Fatal(err)
			}
		}
	}
	plan, err := CompilePlan(l, "u", rules)
	if err != nil {
		t.Fatalf("chained footprint cluster did not compile: %v", err)
	}
	if !plan.perCandidate || plan.ActiveRules() != n {
		t.Fatalf("chained plan: perCandidate=%v, %d active rules; want per-candidate mode over %d", plan.perCandidate, plan.ActiveRules(), n)
	}
	req := Request{User: "u", Rules: rules, PlanRequest: PlanRequest{Target: dl.Atom("Doc"), Explain: true}}
	results, err := NewFactorizedRanker(l).Rank(req)
	if err != nil {
		t.Fatalf("per-candidate rank failed: %v", err)
	}
	if len(results) != n {
		t.Fatalf("%d results, want %d", len(results), n)
	}
	viaPlan, err := plan.Rank(req.PlanRequest)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRanking(t, "cached plan vs per-request plan", viaPlan, results, 0)
	for _, r := range results {
		if r.Explanation == nil || len(r.Explanation.Rules) != n {
			t.Fatalf("%s: explanation does not cover the %d rules", r.ID, n)
		}
	}
	// The restricted per-request compile (footprints of these candidates
	// only) fits the bound, so this holds the two modes against each other;
	// their partitions differ, so only up to float association order.
	ids := []string{"d00", "d07", "no-such-doc"}
	got, err := plan.Rank(PlanRequest{Candidates: ids, TopK: 2})
	if err != nil {
		t.Fatal(err)
	}
	restricted, err := NewFactorizedRanker(l).Rank(Request{User: "u", Rules: rules, PlanRequest: PlanRequest{Candidates: ids, TopK: 2}})
	if err != nil {
		t.Fatal(err)
	}
	assertSameRanking(t, "candidate list: per-candidate vs restricted compile", got, restricted, 1e-12)
	group, err := GroupRank(NewFactorizedRanker(l), GroupRequest{
		Users: []string{"u"}, Target: dl.Atom("Doc"), RulesFor: map[string][]prefs.Rule{"u": rules},
	})
	if err != nil {
		t.Fatalf("group rank over a per-candidate plan: %v", err)
	}
	for i, gr := range group {
		if gr.ID != results[i].ID || gr.Score != results[i].Score {
			t.Fatalf("group result %d = %s:%g, want %s:%g", i, gr.ID, gr.Score, results[i].ID, results[i].Score)
		}
	}
}

// TestClusterRulesPropagatesError: an undeclared (e.g. retired) basic event
// inside a membership event must surface as an error from both the legacy
// clustering and plan compilation — not be silently treated as "dependent".
func TestClusterRulesPropagatesError(t *testing.T) {
	db := engine.New()
	l := mapping.NewLoader(db)
	for _, c := range []string{"Doc", "F1", "F2"} {
		if err := l.DeclareConcept(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.AssertConcept("Doc", "d", nil); err != nil {
		t.Fatal(err)
	}
	if err := situation.New("u").Certain("Ctx").Apply(l); err != nil {
		t.Fatal(err)
	}
	// "ghost" is never declared in the event space.
	if err := l.AssertConcept("F1", "d", event.Basic("ghost")); err != nil {
		t.Fatal(err)
	}
	if err := l.AssertConcept("F2", "d", nil); err != nil {
		t.Fatal(err)
	}
	rules := []prefs.Rule{
		{Name: "r1", Context: dl.Atom("Ctx"), Preference: dl.Atom("F1"), Sigma: 0.8},
		{Name: "r2", Context: dl.Atom("Ctx"), Preference: dl.Atom("F2"), Sigma: 0.7},
	}
	if _, err := CompilePlan(l, "u", rules); err == nil {
		t.Fatal("plan compiled over an undeclared basic event")
	} else if !strings.Contains(err.Error(), "not declared") {
		t.Fatalf("compile error = %v, want 'not declared'", err)
	}
	req := Request{User: "u", Rules: rules, PlanRequest: PlanRequest{Target: dl.Atom("Doc")}}
	if _, err := perCandidateRank(l, req); err == nil {
		t.Fatal("legacy clustering swallowed the undeclared-event error")
	} else if !strings.Contains(err.Error(), "not declared") {
		t.Fatalf("legacy error = %v, want 'not declared'", err)
	}
}

// TestPlanGroupRank: the group ranker's plan fast path must agree with
// ranking each member separately.
func TestPlanGroupRank(t *testing.T) {
	l, rules := correlatedSetup(t)
	// A second situated user sharing the snapshot.
	ctx := situation.New("u").
		AddExclusive("location", []string{"Kitchen", "Living"}, []float64{0.55, 0.35}).
		Add("Weekend", 0.8).
		CertainFor("v", "Weekend")
	if err := ctx.Apply(l); err != nil {
		t.Fatal(err)
	}
	ranker := NewFactorizedRanker(l)
	req := GroupRequest{
		Users:    []string{"u", "v"},
		Target:   dl.Atom("Doc"),
		RulesFor: map[string][]prefs.Rule{"u": rules, "v": rules[2:3]},
		Policy:   PolicyAverage,
	}
	got, err := GroupRank(ranker, req)
	if err != nil {
		t.Fatal(err)
	}
	for _, user := range req.Users {
		solo, err := ranker.Rank(Request{User: user, Rules: req.RulesFor[user], PlanRequest: PlanRequest{Target: req.Target}})
		if err != nil {
			t.Fatal(err)
		}
		scores := make(map[string]float64, len(solo))
		for _, r := range solo {
			scores[r.ID] = r.Score
		}
		for _, gr := range got {
			if math.Abs(gr.PerMember[user]-scores[gr.ID]) > 1e-12 {
				t.Fatalf("group member %s score for %s = %g, solo = %g",
					user, gr.ID, gr.PerMember[user], scores[gr.ID])
			}
		}
	}
}
