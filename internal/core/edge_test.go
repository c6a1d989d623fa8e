package core

import (
	"math"
	"testing"

	"repro/internal/dl"
	"repro/internal/engine"
	"repro/internal/event"
	"repro/internal/mapping"
	"repro/internal/prefs"
	"repro/internal/situation"
)

// TestCorrelatedPreferencesCluster exercises the factorized ranker's
// cluster path: two rules whose preference memberships share the same
// basic event are maximally correlated, so the naive reference and the
// factorized ranker must still agree exactly.
func TestCorrelatedPreferencesCluster(t *testing.T) {
	db := engine.New()
	l := mapping.NewLoader(db)
	l.DeclareConcept("Doc")
	l.DeclareConcept("F1")
	l.DeclareConcept("F2")
	db.Space().Declare("shared", 0.6)
	l.AssertConcept("Doc", "d", nil)
	// Both features hinge on the same event: perfectly correlated.
	l.AssertConcept("F1", "d", event.Basic("shared"))
	l.AssertConcept("F2", "d", event.Basic("shared"))
	situation.New("u").Certain("Ctx").Apply(l)
	rules := []prefs.Rule{
		{Name: "r1", Context: dl.Atom("Ctx"), Preference: dl.Atom("F1"), Sigma: 0.9},
		{Name: "r2", Context: dl.Atom("Ctx"), Preference: dl.Atom("F2"), Sigma: 0.7},
	}
	req := Request{User: "u", Rules: rules, PlanRequest: PlanRequest{Target: dl.Atom("Doc")}}
	naive, err := NewNaiveRanker(l).Rank(req)
	if err != nil {
		t.Fatal(err)
	}
	fact, err := Rank(l, req)
	if err != nil {
		t.Fatal(err)
	}
	// With full correlation the document either has both features (0.6) or
	// neither (0.4): 0.6·(0.9·0.7) + 0.4·(0.1·0.3) = 0.39.
	want := 0.6*0.9*0.7 + 0.4*0.1*0.3
	if math.Abs(naive[0].Score-want) > 1e-9 {
		t.Fatalf("naive = %g, want %g", naive[0].Score, want)
	}
	if math.Abs(fact[0].Score-naive[0].Score) > 1e-9 {
		t.Fatalf("factorized %g != naive %g", fact[0].Score, naive[0].Score)
	}
}

// TestContextDocCorrelation: a rule whose context event and preference
// event coincide. The paper's formula treats the context-state and
// document-state distributions as independent (P(g)·P(f), §3.3) — document
// features doubling as context features is explicitly out of scope (§3.2)
// — so both rankers must marginalize the shared event and produce
// 0.5·(0.5·0.8 + 0.5·0.2) + 0.5·1 = 0.75.
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
	req := Request{User: "u", Rules: rules, PlanRequest: PlanRequest{Target: dl.Atom("Doc")}}

	// Paper formula (independence): Σ_g P(g) Σ_f P(f) factor
	// = 0.5·(0.5·0.8 + 0.5·0.2) + 0.5·1 = 0.75.
	naive, err := NewNaiveRanker(l).Rank(req)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(naive[0].Score-0.75) > 1e-9 {
		t.Fatalf("naive = %g, want 0.75", naive[0].Score)
	}
	fact, err := Rank(l, req)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fact[0].Score-0.75) > 1e-9 {
		t.Fatalf("factorized = %g, want 0.75", fact[0].Score)
	}
}

func TestCandidatesOverrideTarget(t *testing.T) {
	l := paperSetup(t)
	req := paperRequest(t)
	req.Target = nil
	req.Candidates = []string{"BBCNews", "MPFS", "BBCNews"} // dup removed
	for _, r := range rankers(l) {
		results, err := r.rank(req)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if len(results) != 2 || results[0].ID != "BBCNews" {
			t.Fatalf("%s: results = %v", r.name, results)
		}
	}
	req.Target, req.Candidates = nil, nil
	if _, err := NewNaiveRanker(l).Rank(req); err == nil {
		t.Fatal("request without target or candidates accepted")
	}
}

func TestCandidatesOutsideEveryPreference(t *testing.T) {
	// Candidates the rules never mention score by the no-feature factors.
	l := paperSetup(t)
	req := paperRequest(t)
	req.Target = nil
	req.Candidates = []string{"martian"}
	results, err := Rank(l, req)
	if err != nil {
		t.Fatal(err)
	}
	// Both contexts certain, no features: (1−0.8)(1−0.9) = 0.02.
	if math.Abs(results[0].Score-0.02) > 1e-9 {
		t.Fatalf("score = %g", results[0].Score)
	}
}

// TestZeroScoresKeptByEveryRanker: Threshold 0 keeps all, so a document that
// scores 0 is ranked by the naive and the factorized ranker. Rule Ctx → F with σ = 1 under a certain context scores a ∈ F 1 and
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
	req := Request{User: "u", Rules: rules, PlanRequest: PlanRequest{Target: dl.Atom("Doc")}}
	for _, r := range rankers(l) {
		got, err := r.rank(req)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if len(got) != 2 || got[0].ID != "a" || got[0].Score != 1 || got[1].ID != "b" || got[1].Score != 0 {
			t.Errorf("%s = %+v, want [a 1, b 0]", r.name, got)
		}
	}
}
