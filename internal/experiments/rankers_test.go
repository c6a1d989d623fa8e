package experiments

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/dl"
	"repro/internal/engine"
	"repro/internal/event"
	"repro/internal/mapping"
	"repro/internal/prefs"
	"repro/internal/situation"
)

// The view ranker's (and, where it fits, the sampled ranker's) side of
// core's ranker tests: the same inputs and bounds, with core's naive and
// factorized rankers beside them as the reference they must match.

// table1 loads the §4.2 example: Table 1's four programs with their
// uncertain features, and the context "breakfast during the weekend"
// (certain), with the request for the paper's two rules.
func table1(t testing.TB) (*mapping.Loader, core.Request) {
	t.Helper()
	l, rules, err := SetupTable1()
	if err != nil {
		t.Fatal(err)
	}
	return l, core.Request{User: "peter", Rules: rules, PlanRequest: core.PlanRequest{Target: dl.Atom("TvProgram")}}
}

// wantTable1 holds the paper's hand-computed scores (§4.2).
var wantTable1 = map[string]float64{
	"Channel5News": 0.6006,
	"BBCNews":      0.18,
	"Oprah":        0.071,
	"MPFS":         0.02,
}

// exactNames are the exact rankers of the Rankers table, the reference
// first.
var exactNames = []string{"naive", "view", "factorized"}

func TestPaperWorkedExampleAllRankers(t *testing.T) {
	l, req := table1(t)
	check := func(name string, rank Ranker, tol float64) {
		t.Helper()
		results, err := rank(req)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(results) != 4 {
			t.Fatalf("%s: got %d results", name, len(results))
		}
		// Ranking order matches the paper.
		for i, id := range []string{"Channel5News", "BBCNews", "Oprah", "MPFS"} {
			if results[i].ID != id {
				t.Fatalf("%s: rank %d = %s, want %s", name, i, results[i].ID, id)
			}
			if math.Abs(results[i].Score-wantTable1[id]) > tol {
				t.Fatalf("%s: score(%s) = %.6f, want %.4f", name, id, results[i].Score, wantTable1[id])
			}
		}
	}
	for _, name := range exactNames {
		check(name, Rankers[name](l), 1e-9)
	}
	check("sampled", NewSampledRanker(l, 60000, 1).Rank, 0.01)
}

func TestThresholdMatchesIntroQuery(t *testing.T) {
	// The paper's introductory query keeps preferencescore > 0.5.
	l, req := table1(t)
	req.Threshold = 0.5
	for _, name := range exactNames {
		results, err := Rankers[name](l)(req)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(results) != 1 || results[0].ID != "Channel5News" {
			t.Fatalf("%s: results = %v", name, results)
		}
	}
}

func TestLimit(t *testing.T) {
	l, req := table1(t)
	req.Limit = 2
	for _, name := range exactNames {
		results, err := Rankers[name](l)(req)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(results) != 2 || results[0].ID != "Channel5News" || results[1].ID != "BBCNews" {
			t.Fatalf("%s: results = %v", name, results)
		}
	}
}

func TestNoRulesScoresOne(t *testing.T) {
	// Equation (4) over an empty H is the empty product: every document is
	// "ideal" with probability 1.
	l, req := table1(t)
	req.Rules = nil
	for _, name := range exactNames {
		results, err := Rankers[name](l)(req)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, res := range results {
			if math.Abs(res.Score-1) > 1e-9 {
				t.Fatalf("%s: score = %v", name, res)
			}
		}
	}
}

func TestInapplicableRulePrunedToFactorOne(t *testing.T) {
	// A rule whose context cannot hold (Workday during the weekend) must
	// not change any score.
	l, req := table1(t)
	if err := l.DeclareConcept("Workday"); err != nil {
		t.Fatal(err)
	}
	req.Rules = append(req.Rules, prefs.MustParseRule("RULE R3 WHEN Workday PREFER TvProgram WITH 0.99"))
	for _, name := range exactNames {
		results, err := Rankers[name](l)(req)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, res := range results {
			if math.Abs(res.Score-wantTable1[res.ID]) > 1e-9 {
				t.Fatalf("%s: score(%s) = %g, want %g", name, res.ID, res.Score, wantTable1[res.ID])
			}
		}
	}
}

func TestDefaultRuleAppliesAlways(t *testing.T) {
	l, req := table1(t)
	req.Rules = []prefs.Rule{prefs.MustParseRule("RULE D WHEN TOP PREFER TvProgram AND EXISTS hasSubject.{News} WITH 0.9")}
	for _, name := range exactNames {
		results, err := Rankers[name](l)(req)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		scores := map[string]float64{}
		for _, res := range results {
			scores[res.ID] = res.Score
		}
		// Channel5News: 0.85·0.9 + 0.15·0.1 = 0.78.
		for id, want := range map[string]float64{"BBCNews": 0.9, "MPFS": 0.1, "Channel5News": 0.78} {
			if math.Abs(scores[id]-want) > 1e-9 {
				t.Fatalf("%s: %s = %g, want %g", name, id, scores[id], want)
			}
		}
	}
}

// assertAgree ranks req with every exact ranker and fails unless each
// matches the first (the naive reference) within 1e-9, returning the
// reference's results.
func assertAgree(t *testing.T, label string, l *mapping.Loader, req core.Request) []core.Result {
	t.Helper()
	var base []core.Result
	for i, name := range exactNames {
		results, err := Rankers[name](l)(req)
		if err != nil {
			t.Fatalf("%s %s: %v", label, name, err)
		}
		if i == 0 {
			base = results
			continue
		}
		if len(results) != len(base) {
			t.Fatalf("%s: %s returned %d results, %s %d", label, name, len(results), exactNames[0], len(base))
		}
		for j := range results {
			if results[j].ID != base[j].ID || math.Abs(results[j].Score-base[j].Score) > 1e-9 {
				t.Fatalf("%s: %s disagrees with %s at %d: %v vs %v", label, name, exactNames[0], j, results[j], base[j])
			}
		}
	}
	return base
}

func TestUncertainContextConsistency(t *testing.T) {
	// With Breakfast only 60% likely, all rankers must still agree, and the
	// score must interpolate between the breakfast and no-breakfast worlds.
	l, req := table1(t)
	if err := situation.New("peter").Certain("Weekend").Add("Breakfast", 0.6).Apply(l); err != nil {
		t.Fatal(err)
	}
	// BBCNews: R1 factor (1-0.8)=0.2 (weekend certain, no HI);
	// R2 factor: 0.6·0.9 + 0.4·1 = 0.94 → 0.188.
	for _, res := range assertAgree(t, "uncertain breakfast", l, req) {
		if res.ID == "BBCNews" && math.Abs(res.Score-0.2*0.94) > 1e-9 {
			t.Fatalf("BBCNews = %g, want %g", res.Score, 0.2*0.94)
		}
	}
}

func TestDisjointFeaturesViaExclusiveEvents(t *testing.T) {
	// §3.2's disjointness: a program is a traffic bulletin or a weather
	// bulletin, never both, modelled with one exclusive group.
	db := engine.New()
	l := mapping.NewLoader(db)
	l.DeclareConcept("TvProgram")
	l.DeclareConcept("Traffic")
	l.DeclareConcept("Weather")
	db.Space().DeclareExclusive([]string{"is_traffic", "is_weather"}, []float64{0.5, 0.4})
	l.AssertConcept("TvProgram", "bulletin", nil)
	l.AssertConcept("Traffic", "bulletin", event.Basic("is_traffic"))
	l.AssertConcept("Weather", "bulletin", event.Basic("is_weather"))
	situation.New("peter").Certain("MorningCtx").Apply(l)
	rules := []prefs.Rule{
		prefs.MustParseRule("RULE T WHEN MorningCtx PREFER Traffic WITH 0.8"),
		prefs.MustParseRule("RULE W WHEN MorningCtx PREFER Weather WITH 0.6"),
	}
	req := core.Request{User: "peter", Rules: rules, PlanRequest: core.PlanRequest{Target: dl.Atom("TvProgram")}}
	// states: traffic (0.5): 0.8·(1−0.6) ; weather (0.4): (1−0.8)·0.6 ;
	// neither (0.1): 0.2·0.4.
	want := 0.5*0.8*0.4 + 0.4*0.2*0.6 + 0.1*0.2*0.4
	for _, name := range exactNames {
		results, err := Rankers[name](l)(req)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(results) != 1 || math.Abs(results[0].Score-want) > 1e-9 {
			t.Fatalf("%s: results = %v, want score %g", name, results, want)
		}
	}
}

func TestRequestValidation(t *testing.T) {
	l, _ := table1(t)
	bad := core.Request{
		User:        "peter",
		Rules:       []prefs.Rule{{Name: "bad", Context: dl.Top(), Preference: dl.Atom("TvProgram"), Sigma: 2}},
		PlanRequest: core.PlanRequest{Target: dl.Atom("TvProgram")},
	}
	rankers := map[string]Ranker{"view": NewViewRanker(l).Rank, "sampled": NewSampledRanker(l, 100, 1).Rank}
	for name, rank := range rankers {
		if _, err := rank(core.Request{PlanRequest: core.PlanRequest{Target: dl.Atom("TvProgram")}}); err == nil {
			t.Fatalf("%s: missing user accepted", name)
		}
		if _, err := rank(core.Request{User: "peter"}); err == nil {
			t.Fatalf("%s: missing target accepted", name)
		}
		if _, err := rank(bad); err == nil {
			t.Fatalf("%s: invalid sigma accepted", name)
		}
	}
}

// TestRankersAgreeOnRandomInstances cross-validates the exact rankers on
// randomized small instances: random feature probabilities, random σ,
// uncertain context.
func TestRankersAgreeOnRandomInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	feats := []string{"F0", "F1", "F2"}
	for trial := 0; trial < 10; trial++ {
		db := engine.New()
		l := mapping.NewLoader(db)
		l.DeclareConcept("Doc")
		for _, f := range feats {
			l.DeclareConcept(f)
		}
		for d := 0; d < 4; d++ {
			id := string(rune('a' + d))
			l.AssertConcept("Doc", id, nil)
			for _, f := range feats {
				db.Space().Declare(id+f, rng.Float64())
				l.AssertConcept(f, id, event.Basic(id+f))
			}
		}
		ctx := situation.New("u")
		ctx.Add("C0", rng.Float64())
		ctx.Add("C1", rng.Float64())
		ctx.Certain("C2")
		if err := ctx.Apply(l); err != nil {
			t.Fatal(err)
		}
		var rules []prefs.Rule
		for i, f := range feats {
			rules = append(rules, prefs.Rule{
				Name:       fmt.Sprintf("R%d", i),
				Context:    dl.Atom(fmt.Sprintf("C%d", i)),
				Preference: dl.Atom(f),
				Sigma:      rng.Float64(),
			})
		}
		assertAgree(t, fmt.Sprintf("trial %d", trial), l, core.Request{User: "u", Rules: rules, PlanRequest: core.PlanRequest{Target: dl.Atom("Doc")}})
	}
}

// TestContextDocCorrelation: a rule whose context event and preference
// event coincide. The paper's formula treats the context-state and
// document-state distributions as independent (P(g)·P(f), §3.3), so every
// ranker must marginalize the shared event and produce
// 0.5·(0.5·0.8 + 0.5·0.2) + 0.5·1 = 0.75 — the sampled one within 0.01.
func TestContextDocCorrelation(t *testing.T) {
	db := engine.New()
	l := mapping.NewLoader(db)
	l.DeclareConcept("Doc")
	l.DeclareConcept("F")
	l.DeclareConcept("Ctx")
	db.Space().Declare("e", 0.5)
	l.AssertConcept("Doc", "d", nil)
	l.AssertConcept("F", "d", event.Basic("e"))
	l.AssertConcept("Ctx", "u", event.Basic("e"))
	rules := []prefs.Rule{{Name: "r", Context: dl.Atom("Ctx"), Preference: dl.Atom("F"), Sigma: 0.8}}
	req := core.Request{User: "u", Rules: rules, PlanRequest: core.PlanRequest{Target: dl.Atom("Doc")}}
	view, err := NewViewRanker(l).Rank(req)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(view[0].Score-0.75) > 1e-9 {
		t.Fatalf("view = %g, want 0.75", view[0].Score)
	}
	sampled, err := NewSampledRanker(l, 50000, 3).Rank(req)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sampled[0].Score-0.75) > 0.01 {
		t.Fatalf("sampled = %g, want ≈0.75", sampled[0].Score)
	}
}

func TestViewRankerRuleCap(t *testing.T) {
	l, req := table1(t)
	req.Rules = nil
	for i := 0; i < 11; i++ {
		req.Rules = append(req.Rules, prefs.Rule{
			Name: "R" + string(rune('a'+i)), Context: dl.Top(),
			Preference: dl.Atom("TvProgram"), Sigma: 0.5,
		})
	}
	if _, err := NewViewRanker(l).Rank(req); err == nil {
		t.Fatal("view rule cap not enforced")
	}
}

func TestViewRankerBuildSeparately(t *testing.T) {
	l, req := table1(t)
	name, err := NewViewRanker(l).BuildPreferenceView(req)
	if err != nil {
		t.Fatal(err)
	}
	if !l.DB().HasView(name) {
		t.Fatalf("view %s not registered", name)
	}
	res, err := l.DB().Query("SELECT id, score FROM " + name + " ORDER BY score DESC")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 || math.Abs(res.Rows[0][1].F-0.6006) > 1e-9 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestCandidatesOverrideTarget(t *testing.T) {
	l, req := table1(t)
	req.Target = nil
	req.Candidates = []string{"BBCNews", "MPFS", "BBCNews"} // dup removed
	results, err := NewSampledRanker(l, 2000, 1).Rank(req)
	if err != nil {
		t.Fatalf("sampled: %v", err)
	}
	if len(results) != 2 || results[0].ID != "BBCNews" {
		t.Fatalf("sampled: results = %v", results)
	}
	// The view ranks the target concept's view; a candidate list it would
	// ignore is refused, with or without a target beside it.
	for _, target := range []*dl.Expr{nil, dl.Atom("TvProgram")} {
		req.Target = target
		if _, err := NewViewRanker(l).Rank(req); err == nil {
			t.Fatalf("view ranker accepted a candidate list (target %v)", target)
		}
	}
}

// TestZeroScoresKeptByEveryRanker: Threshold 0 keeps all, so a document that
// scores 0 is ranked by the view ranker too, as by the naive and factorized
// ones. Rule Ctx → F with σ = 1 under a certain context scores a ∈ F 1 and
// b ∉ F 0.
func TestZeroScoresKeptByEveryRanker(t *testing.T) {
	db := engine.New()
	l := mapping.NewLoader(db)
	l.DeclareConcept("Doc")
	l.DeclareConcept("F")
	l.AssertConcept("Doc", "a", nil)
	l.AssertConcept("Doc", "b", nil)
	l.AssertConcept("F", "a", nil)
	situation.New("u").Certain("Ctx").Apply(l)
	rules := []prefs.Rule{{Name: "r", Context: dl.Atom("Ctx"), Preference: dl.Atom("F"), Sigma: 1}}
	req := core.Request{User: "u", Rules: rules, PlanRequest: core.PlanRequest{Target: dl.Atom("Doc")}}
	for _, name := range exactNames {
		got, err := Rankers[name](l)(req)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got) != 2 || got[0].ID != "a" || got[0].Score != 1 || got[1].ID != "b" || got[1].Score != 0 {
			t.Errorf("%s = %+v, want [a 1, b 0]", name, got)
		}
	}
}

// correlatedSetup builds a small space with an exclusive sensor group in
// the context, two rules whose preferences share a basic event, an
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
	must(l.AssertConcept("F1", "d1", event.Basic("shared")))
	must(l.AssertConcept("F2", "d1", event.Basic("shared")))
	must(l.AssertConcept("F1", "d2", event.Basic("solo_a")))
	must(l.AssertConcept("F3", "d2", event.Basic("solo_b")))
	ctx := situation.New("u").
		AddExclusive("location", []string{"Kitchen", "Living"}, []float64{0.55, 0.35}).
		Add("Weekend", 0.8)
	must(ctx.Apply(l))
	must(l.DeclareConcept("Nowhere"))
	return l, []prefs.Rule{
		{Name: "r1", Context: dl.Atom("Kitchen"), Preference: dl.Atom("F1"), Sigma: 0.9},
		{Name: "r2", Context: dl.Atom("Living"), Preference: dl.Atom("F2"), Sigma: 0.7},
		{Name: "r3", Context: dl.Atom("Weekend"), Preference: dl.Atom("F3"), Sigma: 0.65},
		{Name: "r4", Context: dl.Atom("Nowhere"), Preference: dl.Atom("F1"), Sigma: 0.3},
	}
}

// TestRequestTopKAcrossRankers: Request.TopK means "first k of the full
// result" for the experiment rankers too, and a negative one is refused.
func TestRequestTopKAcrossRankers(t *testing.T) {
	l, rules := correlatedSetup(t)
	rankers := map[string]Ranker{"view": NewViewRanker(l).Rank, "sampled": NewSampledRanker(l, 500, 3).Rank}
	for name, rank := range rankers {
		req := core.Request{User: "u", Rules: rules, PlanRequest: core.PlanRequest{Target: dl.Atom("Doc")}}
		full, err := rank(req)
		if err != nil {
			t.Fatal(err)
		}
		req.TopK = -1
		if _, err := rank(req); err == nil {
			t.Fatalf("%s accepted top-k -1", name)
		}
		for k := 1; k <= len(full)+1; k++ {
			req.TopK = k
			got, err := rank(req)
			if err != nil {
				t.Fatal(err)
			}
			if want := full[:min(k, len(full))]; !slices.Equal(got, want) {
				t.Fatalf("%s top-%d = %v, want %v", name, k, got, want)
			}
		}
	}
}

// TestExperimentRankersRefuseExplain: the view and sampled rankers do not
// explain; a request for an explanation is refused, not answered without
// one.
func TestExperimentRankersRefuseExplain(t *testing.T) {
	l, req := table1(t)
	req.Explain = true
	rankers := map[string]Ranker{"view": NewViewRanker(l).Rank, "sampled": NewSampledRanker(l, 100, 1).Rank}
	for name, rank := range rankers {
		if _, err := rank(req); !errors.Is(err, errNoExplain) {
			t.Fatalf("%s: explain request answered: err = %v", name, err)
		}
	}
}
