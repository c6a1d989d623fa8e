package contextrank_test

import (
	"fmt"
	"math"
	"testing"

	contextrank "repro"
)

// planSystem builds a small catalog with two rules and an applied context.
func planSystem(t *testing.T) *contextrank.System {
	t.Helper()
	sys := contextrank.NewSystem()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(sys.DeclareConcept("TvProgram"))
	must(sys.DeclareRole("hasGenre"))
	for i := 0; i < 20; i++ {
		id := fmt.Sprintf("tv%02d", i)
		must(sys.AssertConcept("TvProgram", id, 1))
		must(sys.AssertRole("hasGenre", id, fmt.Sprintf("g%d", i%4), 0.9))
	}
	for i := 0; i < 2; i++ {
		_, err := sys.AddRule(fmt.Sprintf("RULE r%d WHEN Ctx%d PREFER TvProgram AND EXISTS hasGenre.{g%d} WITH 0.8", i, i, i))
		must(err)
	}
	must(sys.SetContext(contextrank.NewContext("peter").Add("Ctx0", 0.9).Add("Ctx1", 0.7)))
	return sys
}

// TestCompileRankPlanAPI: one compiled plan must reproduce RankWith and
// RankQuery-style candidate rankings, and reject foreign algorithms.
func TestCompileRankPlanAPI(t *testing.T) {
	sys := planSystem(t)
	plan, err := sys.CompileRankPlan("peter")
	if err != nil {
		t.Fatal(err)
	}
	if plan.User() != "peter" || plan.Rules() != 2 {
		t.Fatalf("plan = user %q, %d rules", plan.User(), plan.Rules())
	}

	want, err := sys.RankWith("peter", "TvProgram", contextrank.RankOptions{Limit: 7, Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := sys.RankWithPlan(plan, "TvProgram", contextrank.RankOptions{Limit: 7, Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || math.Abs(got[i].Score-want[i].Score) > 1e-12 {
			t.Fatalf("result %d: %+v vs %+v", i, got[i], want[i])
		}
		if got[i].Explanation == nil {
			t.Fatalf("result %d missing explanation", i)
		}
	}

	ids := []string{"tv00", "tv01", "tv05"}
	wantC, err := sys.RankCandidates("peter", ids, contextrank.RankOptions{})
	if err != nil {
		t.Fatal(err)
	}
	gotC, err := sys.RankCandidatesWithPlan(plan, ids, contextrank.RankOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(gotC) != len(wantC) {
		t.Fatalf("%d candidate results, want %d", len(gotC), len(wantC))
	}
	for i := range wantC {
		if gotC[i].ID != wantC[i].ID || math.Abs(gotC[i].Score-wantC[i].Score) > 1e-12 {
			t.Fatalf("candidate result %d: %+v vs %+v", i, gotC[i], wantC[i])
		}
	}

	if _, err := sys.RankWithPlan(plan, "TvProgram", contextrank.RankOptions{Algorithm: contextrank.AlgorithmNaive}); err == nil {
		t.Fatal("plan accepted the naive algorithm")
	}
	if _, err := sys.RankCandidatesWithPlan(plan, ids, contextrank.RankOptions{Algorithm: contextrank.AlgorithmView}); err == nil {
		t.Fatal("plan accepted the view algorithm")
	}
}
