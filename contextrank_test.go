package contextrank

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/situation"
)

// buildTVTouch assembles the paper's §4.2 example through the public API
// only.
func buildTVTouch(t testing.TB) *System {
	t.Helper()
	sys := NewSystem()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(sys.DeclareConcept("TvProgram", "Weekend", "Breakfast"))
	must(sys.DeclareRole("hasGenre", "hasSubject"))
	for _, p := range []string{"Oprah", "BBCNews", "Channel5News", "MPFS"} {
		must(sys.AssertConcept("TvProgram", p, 1))
	}
	must(sys.AssertRole("hasGenre", "Oprah", "HUMAN-INTEREST", 0.85))
	must(sys.AssertRole("hasGenre", "Channel5News", "HUMAN-INTEREST", 0.95))
	must(sys.AssertRole("hasSubject", "BBCNews", "News", 1))
	must(sys.AssertRole("hasSubject", "Channel5News", "News", 0.85))
	if _, err := sys.AddRule("RULE R1 WHEN Weekend PREFER TvProgram AND EXISTS hasGenre.{HUMAN-INTEREST} WITH 0.8"); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.AddRule("RULE R2 WHEN Breakfast PREFER TvProgram AND EXISTS hasSubject.{News} WITH 0.9"); err != nil {
		t.Fatal(err)
	}
	must(sys.SetContext(NewContext("peter").Certain("Weekend").Certain("Breakfast")))
	return sys
}

// checkPaperExample ranks peter's programs on the §4.2 example with alg and
// checks the paper's scores.
func checkPaperExample(t *testing.T, sys *System, alg Algorithm) {
	t.Helper()
	want := map[string]float64{
		"Channel5News": 0.6006, "BBCNews": 0.18, "Oprah": 0.071, "MPFS": 0.02,
	}
	results, err := sys.RankWith("peter", "TvProgram", RankOptions{Algorithm: alg})
	if err != nil {
		t.Fatalf("%s: %v", alg, err)
	}
	if len(results) != 4 || results[0].ID != "Channel5News" {
		t.Fatalf("%s: results = %v", alg, results)
	}
	for _, r := range results {
		if math.Abs(r.Score-want[r.ID]) > 1e-9 {
			t.Fatalf("%s: score(%s) = %g", alg, r.ID, r.Score)
		}
	}
}

func TestPublicAPIPaperExample(t *testing.T) {
	sys := buildTVTouch(t)
	for _, alg := range []Algorithm{AlgorithmFactorized, AlgorithmNaive, AlgorithmView} {
		checkPaperExample(t, sys, alg)
	}
}

// TestViewRankRegistersNoView: a view rank queries the big preference view
// inline, so ranking again leaves the database's views and its snapshot as
// the first rank left them (which compiled the rules' expressions once).
func TestViewRankRegistersNoView(t *testing.T) {
	sys := buildTVTouch(t)
	snapshot := func() []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := sys.SaveSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	checkPaperExample(t, sys, AlgorithmView)
	views, snap := sys.Loader().DB().ViewNames(), snapshot()
	for i := 0; i < 5; i++ {
		checkPaperExample(t, sys, AlgorithmView)
	}
	if got := sys.Loader().DB().ViewNames(); !slices.Equal(got, views) {
		t.Errorf("views after five more view ranks: %v, want %v", got, views)
	}
	if got := snapshot(); !bytes.Equal(got, snap) {
		t.Errorf("snapshot grew from %d to %d bytes over five view ranks", len(snap), len(got))
	}
	for _, v := range views {
		if strings.HasPrefix(v, "pref_big") {
			t.Errorf("a view rank registered %s", v)
		}
	}
}

func TestRankOptionsThresholdLimitExplain(t *testing.T) {
	sys := buildTVTouch(t)
	results, err := sys.RankWith("peter", "TvProgram", RankOptions{Threshold: 0.5, Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Explanation == nil {
		t.Fatalf("results = %v", results)
	}
	results, err = sys.RankWith("peter", "TvProgram", RankOptions{Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %v", results)
	}
	if _, err := sys.RankWith("peter", "TvProgram", RankOptions{Algorithm: "quantum"}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestRankTargetExpression(t *testing.T) {
	sys := buildTVTouch(t)
	// Rank only news programs: a real DL expression as target.
	results, err := sys.Rank("peter", "TvProgram AND EXISTS hasSubject.{News}")
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %v", results)
	}
	if _, err := sys.Rank("peter", "NOT ("); err == nil {
		t.Fatal("bad target expression accepted")
	}
}

func TestAssertValidation(t *testing.T) {
	sys := NewSystem()
	sys.DeclareConcept("C")
	sys.DeclareRole("r")
	if err := sys.AssertConcept("C", "x", 0); err == nil {
		t.Fatal("zero probability accepted")
	}
	if err := sys.AssertConcept("C", "x", 1.2); err == nil {
		t.Fatal("probability > 1 accepted")
	}
	if err := sys.AssertRole("r", "x", "y", -1); err == nil {
		t.Fatal("negative probability accepted")
	}
	if err := sys.AssertConcept("Ghost", "x", 1); err == nil {
		t.Fatal("undeclared concept accepted")
	}
}

func TestAddRuleVocabularyValidation(t *testing.T) {
	sys := NewSystem()
	sys.DeclareConcept("TvProgram")
	if _, err := sys.AddRule("WHEN Weekend PREFER Movie WITH 0.5"); err == nil {
		t.Fatal("undeclared preference concept accepted")
	}
	if _, err := sys.AddRule("WHEN Weekend PREFER TvProgram AND EXISTS hasGenre.{X} WITH 0.5"); err == nil {
		t.Fatal("undeclared role accepted")
	}
	// Context concepts auto-declare (they arrive with future contexts).
	if _, err := sys.AddRule("WHEN Evening PREFER TvProgram WITH 0.5"); err != nil {
		t.Fatal(err)
	}
}

func TestDirectSQLAccess(t *testing.T) {
	sys := buildTVTouch(t)
	res, err := sys.Query("SELECT COUNT(*) FROM c_TvProgram")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 4 {
		t.Fatalf("count = %v", res.Rows[0][0])
	}
	if _, err := sys.Exec("CREATE TABLE scratch (x INT)"); err != nil {
		t.Fatal(err)
	}
}

func TestContextSwitchChangesRanking(t *testing.T) {
	sys := buildTVTouch(t)
	// Weekday evening: neither rule context holds; everything scores 1.
	if err := sys.SetContext(NewContext("peter").Certain("Workday")); err != nil {
		t.Fatal(err)
	}
	results, err := sys.Rank("peter", "TvProgram")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if math.Abs(r.Score-1) > 1e-9 {
			t.Fatalf("score = %v", r)
		}
	}
	// Back to the weekend breakfast: Table 1 ranking returns.
	if err := sys.SetContext(NewContext("peter").Certain("Weekend").Certain("Breakfast")); err != nil {
		t.Fatal(err)
	}
	results, _ = sys.Rank("peter", "TvProgram")
	if results[0].ID != "Channel5News" {
		t.Fatalf("results = %v", results)
	}
}

func TestMineRulesFromHistory(t *testing.T) {
	sys := buildTVTouch(t)
	docs := []HistoryDoc{
		{ID: "t", Features: map[string]bool{"traffic": true}},
		{ID: "w", Features: map[string]bool{"weather": true}},
	}
	for i := 0; i < 10; i++ {
		ep := Episode{
			ContextFeatures: map[string]bool{"WorkdayMorning": true},
			Available:       docs,
			Chosen:          map[string]bool{},
		}
		if i < 8 {
			ep.Chosen["t"] = true
		}
		if err := sys.History().Append(ep); err != nil {
			t.Fatal(err)
		}
	}
	rules, err := sys.MineRules(5,
		func(f string) string { return "Morning" },
		func(f string) string {
			if f == "traffic" {
				return "TvProgram AND EXISTS hasSubject.{Traffic}"
			}
			return "" // skip other features
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 1 || math.Abs(rules[0].Sigma-0.8) > 1e-9 {
		t.Fatalf("mined = %v", rules)
	}
	if _, err := sys.MineRules(1, nil, nil); err == nil {
		t.Fatal("nil callbacks accepted")
	}
}

func TestIRIntegration(t *testing.T) {
	sys := buildTVTouch(t)
	ix := NewIRIndex()
	// Document features double as IR terms.
	if err := ix.Add(IRDocument{ID: "Channel5News", Features: map[string]int{"news": 2, "human-interest": 1}}); err != nil {
		t.Fatal(err)
	}
	qd, err := QueryDependentScore(ix, "Channel5News", []string{"news"}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	results, _ := sys.Rank("peter", "TvProgram")
	combined, err := CombinedScore(qd, results[0].Score, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if combined <= 0 || combined > 1 {
		t.Fatalf("combined = %g", combined)
	}
}

func TestSenseContextThroughFacade(t *testing.T) {
	ctx, err := SenseContext("peter", situation.ClockSensor{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ctx.Measurements) == 0 {
		t.Fatal("no measurements")
	}
}
