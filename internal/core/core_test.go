package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dl"
	"repro/internal/engine"
	"repro/internal/event"
	"repro/internal/mapping"
	"repro/internal/prefs"
	"repro/internal/situation"
)

// paperSetup loads the paper's §4.2 example: Table 1's four programs with
// their uncertain features, and the context "breakfast during the weekend"
// (certain).
func paperSetup(t testing.TB) *mapping.Loader {
	t.Helper()
	db := engine.New()
	l := mapping.NewLoader(db)
	for _, c := range []string{"TvProgram"} {
		if err := l.DeclareConcept(c); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range []string{"hasGenre", "hasSubject"} {
		if err := l.DeclareRole(r); err != nil {
			t.Fatal(err)
		}
	}
	space := db.Space()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	// Table 1 probabilities.
	must(space.Declare("oprah_hi", 0.85))
	must(space.Declare("c5_hi", 0.95))
	must(space.Declare("c5_news", 0.85))
	for _, p := range []string{"Oprah", "BBCNews", "Channel5News", "MPFS"} {
		must(l.AssertConcept("TvProgram", p, nil))
	}
	must(l.AssertRole("hasGenre", "Oprah", "HUMAN-INTEREST", event.Basic("oprah_hi")))
	must(l.AssertRole("hasGenre", "Channel5News", "HUMAN-INTEREST", event.Basic("c5_hi")))
	must(l.AssertRole("hasSubject", "BBCNews", "News", nil))
	must(l.AssertRole("hasSubject", "Channel5News", "News", event.Basic("c5_news")))
	// Context: breakfast during the weekend, certain.
	must(situation.New("peter").Certain("Weekend").Certain("Breakfast").Apply(l))
	return l
}

func paperRules(t testing.TB) []prefs.Rule {
	t.Helper()
	return []prefs.Rule{
		prefs.MustParseRule("RULE R1 WHEN Weekend PREFER TvProgram AND EXISTS hasGenre.{HUMAN-INTEREST} WITH 0.8"),
		prefs.MustParseRule("RULE R2 WHEN Breakfast PREFER TvProgram AND EXISTS hasSubject.{News} WITH 0.9"),
	}
}

func paperRequest(t testing.TB) Request {
	return Request{User: "peter", Rules: paperRules(t), PlanRequest: PlanRequest{Target: dl.Atom("TvProgram")}}
}

// wantTable1 holds the paper's hand-computed scores (§4.2).
var wantTable1 = map[string]float64{
	"Channel5News": 0.6006,
	"BBCNews":      0.18,
	"Oprah":        0.071,
	"MPFS":         0.02,
}

// namedRanker is one of core's two rankers under the name a failure
// reports: the naive reference and the compiled plan (Rank).
type namedRanker struct {
	name string
	rank func(Request) ([]Result, error)
}

func rankers(l *mapping.Loader) []namedRanker {
	return []namedRanker{
		{"naive", NewNaiveRanker(l).Rank},
		{"factorized", func(req Request) ([]Result, error) { return Rank(l, req) }},
	}
}

func TestPaperWorkedExampleAllRankers(t *testing.T) {
	l := paperSetup(t)
	for _, r := range rankers(l) {
		results, err := r.rank(paperRequest(t))
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if len(results) != 4 {
			t.Fatalf("%s: got %d results", r.name, len(results))
		}
		// Ranking order matches the paper.
		wantOrder := []string{"Channel5News", "BBCNews", "Oprah", "MPFS"}
		for i, id := range wantOrder {
			if results[i].ID != id {
				t.Fatalf("%s: rank %d = %s, want %s", r.name, i, results[i].ID, id)
			}
			if math.Abs(results[i].Score-wantTable1[id]) > 1e-9 {
				t.Fatalf("%s: score(%s) = %.6f, want %.4f", r.name, id, results[i].Score, wantTable1[id])
			}
		}
	}
}

func TestThresholdMatchesIntroQuery(t *testing.T) {
	// The paper's introductory query keeps preferencescore > 0.5.
	l := paperSetup(t)
	for _, r := range rankers(l) {
		req := paperRequest(t)
		req.Threshold = 0.5
		results, err := r.rank(req)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if len(results) != 1 || results[0].ID != "Channel5News" {
			t.Fatalf("%s: results = %v", r.name, results)
		}
	}
}

func TestLimit(t *testing.T) {
	l := paperSetup(t)
	for _, r := range rankers(l) {
		req := paperRequest(t)
		req.Limit = 2
		results, err := r.rank(req)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if len(results) != 2 || results[0].ID != "Channel5News" || results[1].ID != "BBCNews" {
			t.Fatalf("%s: results = %v", r.name, results)
		}
	}
}

func TestNoRulesScoresOne(t *testing.T) {
	// Equation (4) over an empty H is the empty product: every document is
	// "ideal" with probability 1 — the degenerate case §4.1 warns about.
	l := paperSetup(t)
	for _, r := range rankers(l) {
		results, err := r.rank(Request{User: "peter", PlanRequest: PlanRequest{Target: dl.Atom("TvProgram")}})
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		for _, res := range results {
			if math.Abs(res.Score-1) > 1e-9 {
				t.Fatalf("%s: score = %v", r.name, res)
			}
		}
	}
}

func TestInapplicableRulePrunedToFactorOne(t *testing.T) {
	// A rule whose context cannot hold (Workday during the weekend) must
	// not change any score.
	l := paperSetup(t)
	if err := l.DeclareConcept("Workday"); err != nil {
		t.Fatal(err)
	}
	rules := append(paperRules(t),
		prefs.MustParseRule("RULE R3 WHEN Workday PREFER TvProgram WITH 0.99"))
	for _, r := range rankers(l) {
		results, err := r.rank(Request{User: "peter", Rules: rules, PlanRequest: PlanRequest{Target: dl.Atom("TvProgram")}})
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		for _, res := range results {
			if math.Abs(res.Score-wantTable1[res.ID]) > 1e-9 {
				t.Fatalf("%s: score(%s) = %g, want %g", r.name, res.ID, res.Score, wantTable1[res.ID])
			}
		}
	}
}

func TestDefaultRuleAppliesAlways(t *testing.T) {
	l := paperSetup(t)
	rules := []prefs.Rule{prefs.MustParseRule("RULE D WHEN TOP PREFER TvProgram AND EXISTS hasSubject.{News} WITH 0.9")}
	for _, r := range rankers(l) {
		results, err := r.rank(Request{User: "peter", Rules: rules, PlanRequest: PlanRequest{Target: dl.Atom("TvProgram")}})
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		scores := map[string]float64{}
		for _, res := range results {
			scores[res.ID] = res.Score
		}
		if math.Abs(scores["BBCNews"]-0.9) > 1e-9 {
			t.Fatalf("%s: BBCNews = %g, want 0.9", r.name, scores["BBCNews"])
		}
		if math.Abs(scores["MPFS"]-0.1) > 1e-9 {
			t.Fatalf("%s: MPFS = %g, want 0.1", r.name, scores["MPFS"])
		}
		// Channel5News: 0.85·0.9 + 0.15·0.1 = 0.78.
		if math.Abs(scores["Channel5News"]-0.78) > 1e-9 {
			t.Fatalf("%s: Channel5News = %g, want 0.78", r.name, scores["Channel5News"])
		}
	}
}

func TestUncertainContextConsistency(t *testing.T) {
	// With Breakfast only 60% likely, all rankers must still agree, and the
	// score must interpolate between the breakfast and no-breakfast worlds.
	l := paperSetup(t)
	if err := situation.New("peter").Certain("Weekend").Add("Breakfast", 0.6).Apply(l); err != nil {
		t.Fatal(err)
	}
	req := paperRequest(t)
	var base []Result
	for i, r := range rankers(l) {
		results, err := r.rank(req)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if i == 0 {
			base = results
			continue
		}
		for j := range results {
			if results[j].ID != base[j].ID || math.Abs(results[j].Score-base[j].Score) > 1e-9 {
				t.Fatalf("%s disagrees with %s: %v vs %v", r.name, rankers(l)[0].name, results[j], base[j])
			}
		}
	}
	// BBCNews: R1 factor (1-0.8)=0.2 (weekend certain, no HI);
	// R2 factor: 0.6·0.9 + 0.4·1 = 0.94 → 0.188.
	for _, res := range base {
		if res.ID == "BBCNews" && math.Abs(res.Score-0.2*0.94) > 1e-9 {
			t.Fatalf("BBCNews = %g, want %g", res.Score, 0.2*0.94)
		}
	}
}

func TestDisjointFeaturesViaExclusiveEvents(t *testing.T) {
	// §3.2's disjointness: a program is a traffic bulletin or a weather
	// bulletin, never both. Model the memberships with one exclusive group
	// and check the rankers agree and respect the exclusivity.
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
	req := Request{User: "peter", Rules: rules, PlanRequest: PlanRequest{Target: dl.Atom("TvProgram")}}
	// Exact expectation with the exclusive group:
	// states: traffic (0.5): 0.8·(1−0.6) ; weather (0.4): (1−0.8)·0.6 ;
	// neither (0.1): 0.2·0.4.
	want := 0.5*0.8*0.4 + 0.4*0.2*0.6 + 0.1*0.2*0.4
	for _, r := range rankers(l) {
		results, err := r.rank(req)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if len(results) != 1 || math.Abs(results[0].Score-want) > 1e-9 {
			t.Fatalf("%s: results = %v, want score %g", r.name, results, want)
		}
	}
}

func TestExplanations(t *testing.T) {
	l := paperSetup(t)
	for _, r := range rankers(l) {
		req := paperRequest(t)
		req.Explain = true
		results, err := r.rank(req)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		for _, res := range results {
			if res.Explanation == nil || len(res.Explanation.Rules) != 2 {
				t.Fatalf("%s: explanation missing on %v", r.name, res)
			}
		}
		// Channel5News contributions: R1 factor 0.95·0.8+0.05·0.2 = 0.77,
		// R2 factor 0.85·0.9+0.15·0.1 = 0.78; product 0.6006.
		top := results[0]
		f1, f2 := top.Explanation.Rules[0].Factor, top.Explanation.Rules[1].Factor
		if math.Abs(f1*f2-0.6006) > 1e-9 {
			t.Fatalf("%s: factors %g·%g != 0.6006", r.name, f1, f2)
		}
		if top.Explanation.Rules[0].String() == "" {
			t.Fatalf("%s: empty contribution string", r.name)
		}
	}
}

func TestRequestValidation(t *testing.T) {
	l := paperSetup(t)
	for _, r := range rankers(l) {
		if _, err := r.rank(Request{PlanRequest: PlanRequest{Target: dl.Atom("TvProgram")}}); err == nil {
			t.Fatalf("%s: missing user accepted", r.name)
		}
		if _, err := r.rank(Request{User: "peter"}); err == nil {
			t.Fatalf("%s: missing target accepted", r.name)
		}
		bad := Request{
			User:        "peter",
			Rules:       []prefs.Rule{{Name: "bad", Context: dl.Top(), Preference: dl.Atom("TvProgram"), Sigma: 2}},
			PlanRequest: PlanRequest{Target: dl.Atom("TvProgram")},
		}
		if _, err := r.rank(bad); err == nil {
			t.Fatalf("%s: invalid sigma accepted", r.name)
		}
	}
}

// TestRankersAgreeOnRandomInstances cross-validates the two rankers on
// randomized small instances: random feature probabilities, random σ,
// uncertain context.
func TestRankersAgreeOnRandomInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 10; trial++ {
		db := engine.New()
		l := mapping.NewLoader(db)
		l.DeclareConcept("Doc")
		nFeat := 3
		feats := []string{"F0", "F1", "F2"}
		for _, f := range feats {
			l.DeclareConcept(f)
		}
		nDocs := 4
		for d := 0; d < nDocs; d++ {
			id := string(rune('a' + d))
			l.AssertConcept("Doc", id, nil)
			for fi := 0; fi < nFeat; fi++ {
				p := rng.Float64()
				evName := id + feats[fi]
				db.Space().Declare(evName, p)
				l.AssertConcept(feats[fi], id, event.Basic(evName))
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
		for i := 0; i < 3; i++ {
			rules = append(rules, prefs.Rule{
				Name:       "R" + string(rune('0'+i)),
				Context:    dl.Atom("C" + string(rune('0'+i))),
				Preference: dl.Atom(feats[i]),
				Sigma:      rng.Float64(),
			})
		}
		req := Request{User: "u", Rules: rules, PlanRequest: PlanRequest{Target: dl.Atom("Doc")}}
		var base []Result
		for i, r := range rankers(l) {
			results, err := r.rank(req)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, r.name, err)
			}
			if i == 0 {
				base = results
				continue
			}
			for j := range results {
				if results[j].ID != base[j].ID || math.Abs(results[j].Score-base[j].Score) > 1e-9 {
					t.Fatalf("trial %d: %s disagrees at %d: %v vs %v",
						trial, r.name, j, results[j], base[j])
				}
			}
		}
	}
}

func TestSmoothedScore(t *testing.T) {
	// λ=1: pure query; λ=0: pure context; λ=0.5: geometric mean.
	s, err := SmoothedScore(0.4, 0.9, 1)
	if err != nil || math.Abs(s-0.4) > 1e-12 {
		t.Fatalf("λ=1: %g, %v", s, err)
	}
	s, _ = SmoothedScore(0.4, 0.9, 0)
	if math.Abs(s-0.9) > 1e-12 {
		t.Fatalf("λ=0: %g", s)
	}
	s, _ = SmoothedScore(0.25, 0.25, 0.5)
	if math.Abs(s-0.25) > 1e-12 {
		t.Fatalf("λ=0.5 equal inputs: %g", s)
	}
	if _, err := SmoothedScore(0.5, 0.5, 1.5); err == nil {
		t.Fatal("bad lambda accepted")
	}
	if _, err := SmoothedScore(-0.1, 0.5, 0.5); err == nil {
		t.Fatal("negative probability accepted")
	}
	// 0^0 convention: zero query-dependent part with λ=0 is neutral.
	s, _ = SmoothedScore(0, 0.9, 0)
	if math.Abs(s-0.9) > 1e-12 {
		t.Fatalf("0^0 convention broken: %g", s)
	}
}

func TestNaiveRankerRuleCap(t *testing.T) {
	l := paperSetup(t)
	var rules []prefs.Rule
	for i := 0; i < 21; i++ {
		rules = append(rules, prefs.Rule{
			Name: "R" + string(rune('a'+i)), Context: dl.Top(),
			Preference: dl.Atom("TvProgram"), Sigma: 0.5,
		})
	}
	_, err := NewNaiveRanker(l).Rank(Request{User: "peter", Rules: rules, PlanRequest: PlanRequest{Target: dl.Atom("TvProgram")}})
	var costly *TooCostlyError
	if !errors.As(err, &costly) {
		t.Fatalf("rule cap not enforced as too costly: %v", err)
	}
}
