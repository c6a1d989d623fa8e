package contextrank

import (
	"bytes"
	"math"
	"testing"
)

// TestRestoreRetiresSnapshotContext: a snapshot taken with an applied
// uncertain context carries that context's ctx_* declarations; the first
// SetContext on the restored system must retract and retire them instead of
// leaking them (or colliding with their names), keeping the event space
// bounded across save/restore cycles too.
func TestRestoreRetiresSnapshotContext(t *testing.T) {
	sys := NewSystem()
	if err := sys.DeclareConcept("Doc"); err != nil {
		t.Fatal(err)
	}
	if err := sys.AssertConcept("Doc", "d1", 1); err != nil {
		t.Fatal(err)
	}
	if err := sys.SetContext(NewContext("u").Add("Rainy", 0.7)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sys.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreSystem(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got := restored.DB().Space().Len(); got != 1 {
		t.Fatalf("restored space holds %d events, want 1 (the snapshot context's)", got)
	}
	// Re-sensing context on the restored system (fresh per §5) must neither
	// collide with the restored event names nor leave them behind.
	for i := 0; i < 5; i++ {
		if err := restored.SetContext(NewContext("u").Add("Rainy", 0.8).Add("Cold", 0.5)); err != nil {
			t.Fatalf("post-restore apply %d: %v", i, err)
		}
	}
	if got := restored.DB().Space().Len(); got != 2 {
		t.Fatalf("space holds %d events after post-restore applies, want 2 (snapshot context leaked)", got)
	}
}

// TestRestoreAdoptsUserContexts: contexts applied per user survive a
// snapshot as one adopted record — certain memberships included, which no
// event name carries — and the restored system's first SetContext retracts
// and retires all of it.
func TestRestoreAdoptsUserContexts(t *testing.T) {
	sys := NewSystem()
	if _, err := sys.SetUserContext(NewContext("u").Add("Rainy", 0.7)); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.SetUserContext(NewContext("v").Certain("Rainy").Add("Cold", 0.5)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sys.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreSystem(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got := restored.DB().Space().Len(); got != 2 {
		t.Fatalf("restored space holds %d events, want 2", got)
	}
	if total, ctx := restored.Loader().ConceptRows("Rainy"); total != 2 || ctx != 2 {
		t.Fatalf("restored Rainy holds %d rows, %d adopted as context", total, ctx)
	}
	if err := restored.SetContext(NewContext("w").Add("Cold", 0.1)); err != nil {
		t.Fatal(err)
	}
	if got := restored.DB().Space().Len(); got != 1 {
		t.Fatalf("space holds %d events after the first post-restore apply, want 1", got)
	}
	if total, _ := restored.Loader().ConceptRows("Rainy"); total != 0 {
		t.Fatalf("snapshot context left %d rows in Rainy", total)
	}
}

func TestAlgorithmSampledApproximates(t *testing.T) {
	sys := buildTVTouch(t)
	exact, err := sys.Rank("peter", "TvProgram")
	if err != nil {
		t.Fatal(err)
	}
	approx, err := sys.RankWith("peter", "TvProgram", RankOptions{Algorithm: AlgorithmSampled})
	if err != nil {
		t.Fatal(err)
	}
	if len(approx) != len(exact) {
		t.Fatalf("sizes: %d vs %d", len(approx), len(exact))
	}
	byID := map[string]float64{}
	for _, r := range exact {
		byID[r.ID] = r.Score
	}
	for _, r := range approx {
		if math.Abs(r.Score-byID[r.ID]) > 0.05 {
			t.Fatalf("sampled score(%s) = %g, exact %g", r.ID, r.Score, byID[r.ID])
		}
	}
	if approx[0].ID != "Channel5News" {
		t.Fatalf("order = %v", approx)
	}
}

func TestRankGroup(t *testing.T) {
	sys := buildTVTouch(t)
	// One context snapshot covering both users.
	ctx := NewContext("peter").Certain("Weekend").Certain("Breakfast").
		CertainFor("mary", "Weekend").CertainFor("mary", "Breakfast")
	if err := sys.SetContext(ctx); err != nil {
		t.Fatal(err)
	}
	maryRule, err := ParseRule("RULE M WHEN Breakfast PREFER TvProgram AND EXISTS hasSubject.{News} WITH 0.5")
	if err != nil {
		t.Fatal(err)
	}
	results, err := sys.RankGroup(
		[]string{"peter", "mary"}, "TvProgram",
		map[string][]Rule{"peter": sys.Rules().Rules(), "mary": {maryRule}},
		PolicyConsensus)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("results = %v", results)
	}
	for _, r := range results {
		if r.ID == "BBCNews" && math.Abs(r.Score-0.18*0.5) > 1e-9 {
			t.Fatalf("consensus = %v", r)
		}
	}
	// Average policy runs too.
	if _, err := sys.RankGroup([]string{"peter", "mary"}, "TvProgram",
		map[string][]Rule{}, PolicyAverage); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RankGroup(nil, "TvProgram", nil, PolicyConsensus); err == nil {
		t.Fatal("empty group accepted")
	}
	if _, err := sys.RankGroup([]string{"peter"}, "NOT (", nil, PolicyConsensus); err == nil {
		t.Fatal("bad target accepted")
	}
}

func TestSnapshotRoundTripThroughFacade(t *testing.T) {
	sys := buildTVTouch(t)
	var buf bytes.Buffer
	if err := sys.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreSystem(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// Rules survive.
	if restored.Rules().Len() != 2 {
		t.Fatalf("rules = %d", restored.Rules().Len())
	}
	// Vocabulary survives: new assertions and context still work.
	if err := restored.AssertConcept("TvProgram", "NewShow", 1); err != nil {
		t.Fatal(err)
	}
	if err := restored.SetContext(NewContext("peter").Certain("Weekend").Certain("Breakfast")); err != nil {
		t.Fatal(err)
	}
	results, err := restored.Rank("peter", "TvProgram")
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 {
		t.Fatalf("results = %v", results)
	}
	// Table 1 scores reproduce on the restored system.
	for _, r := range results {
		if r.ID == "Channel5News" && math.Abs(r.Score-0.6006) > 1e-9 {
			t.Fatalf("restored score = %v", r)
		}
	}
	if _, err := RestoreSystem(bytes.NewReader([]byte("junk"))); err == nil {
		t.Fatal("garbage snapshot accepted")
	}
}

func TestAnalyzeRulesThroughFacade(t *testing.T) {
	sys := buildTVTouch(t)
	if fs := sys.AnalyzeRules(); len(fs) != 0 {
		t.Fatalf("unexpected findings: %v", fs)
	}
	if _, err := sys.AddRule("RULE Dup WHEN Weekend PREFER TvProgram AND EXISTS hasGenre.{HUMAN-INTEREST} WITH 0.8"); err != nil {
		t.Fatal(err)
	}
	fs := sys.AnalyzeRules()
	if len(fs) != 1 || fs[0].Kind != "duplicate" {
		t.Fatalf("findings = %v", fs)
	}
}
