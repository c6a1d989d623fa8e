package core

import (
	"math"
	"testing"

	"repro/internal/dl"
	"repro/internal/mapping"
	"repro/internal/prefs"
	"repro/internal/situation"
)

// buildGroupRequest extends the paper example with a second user, Mary,
// who likes news less and human interest not at all.
func buildGroupRequest(t *testing.T) (GroupRequest, *mapping.Loader) {
	t.Helper()
	l := paperSetup(t)
	// One context snapshot covering both users: they share the weekend
	// breakfast (a single Apply replaces the previous context, so a group
	// context must carry every member's memberships).
	ctx := situation.New("peter").Certain("Weekend").Certain("Breakfast").
		CertainFor("mary", "Weekend").CertainFor("mary", "Breakfast")
	if err := ctx.Apply(l); err != nil {
		t.Fatal(err)
	}
	peterRules := paperRules(t)
	maryRules := []prefs.Rule{
		prefs.MustParseRule("RULE M1 WHEN Breakfast PREFER TvProgram AND EXISTS hasSubject.{News} WITH 0.5"),
	}
	req := GroupRequest{
		Users:  []string{"peter", "mary"},
		Target: dl.Atom("TvProgram"),
		RulesFor: map[string][]prefs.Rule{
			"peter": peterRules,
			"mary":  maryRules,
		},
	}
	return req, l
}

func TestGroupRankConsensus(t *testing.T) {
	req, l := buildGroupRequest(t)
	results, err := GroupRank(l, req)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("results = %v", results)
	}
	// Consensus = product of member scores; check one by hand:
	// BBCNews: peter 0.18, mary 0.5 → 0.09.
	for _, r := range results {
		if r.ID == "BBCNews" {
			if math.Abs(r.PerMember["peter"]-0.18) > 1e-9 || math.Abs(r.PerMember["mary"]-0.5) > 1e-9 {
				t.Fatalf("per-member = %v", r.PerMember)
			}
			if math.Abs(r.Score-0.09) > 1e-9 {
				t.Fatalf("consensus = %g", r.Score)
			}
		}
	}
	// Ordering is descending.
	for i := 1; i < len(results); i++ {
		if results[i].Score > results[i-1].Score {
			t.Fatalf("not sorted: %v", results)
		}
	}
}

func TestGroupRankPolicies(t *testing.T) {
	req, l := buildGroupRequest(t)

	req.Policy = PolicyAverage
	avg, err := GroupRank(l, req)
	if err != nil {
		t.Fatal(err)
	}
	req.Policy = PolicyLeastMisery
	lm, err := GroupRank(l, req)
	if err != nil {
		t.Fatal(err)
	}
	find := func(rs []GroupResult, id string) GroupResult {
		for _, r := range rs {
			if r.ID == id {
				return r
			}
		}
		t.Fatalf("%s missing", id)
		return GroupResult{}
	}
	bbcAvg := find(avg, "BBCNews")
	if math.Abs(bbcAvg.Score-(0.18+0.5)/2) > 1e-9 {
		t.Fatalf("average = %g", bbcAvg.Score)
	}
	bbcLM := find(lm, "BBCNews")
	if math.Abs(bbcLM.Score-0.18) > 1e-9 {
		t.Fatalf("least misery = %g", bbcLM.Score)
	}
}

func TestGroupRankThresholdLimitAndValidation(t *testing.T) {
	req, l := buildGroupRequest(t)
	req.Limit = 2
	results, err := GroupRank(l, req)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("limit ignored: %v", results)
	}
	req.Limit = 0
	req.Threshold = 0.2
	results, err = GroupRank(l, req)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Score <= 0.2 {
			t.Fatalf("threshold ignored: %v", r)
		}
	}
	if _, err := GroupRank(l, GroupRequest{Target: dl.Atom("TvProgram")}); err == nil {
		t.Fatal("no users accepted")
	}
	if _, err := GroupRank(l, GroupRequest{Users: []string{"peter"}}); err == nil {
		t.Fatal("no target accepted")
	}
	req.Policy = "dictatorship"
	if _, err := GroupRank(l, req); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestGroupRankMemberWithoutRules(t *testing.T) {
	req, l := buildGroupRequest(t)
	delete(req.RulesFor, "mary") // mary has no rules: every doc scores 1
	results, err := GroupRank(l, req)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if math.Abs(r.PerMember["mary"]-1) > 1e-9 {
			t.Fatalf("ruleless member score = %v", r)
		}
		if math.Abs(r.Score-r.PerMember["peter"]) > 1e-9 {
			t.Fatalf("consensus with neutral member: %v", r)
		}
	}
}
