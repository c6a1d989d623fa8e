package contextrank

import (
	"math"
	"strconv"
	"testing"
)

func TestRankQueryIntegratesUserQuery(t *testing.T) {
	sys := buildTVTouch(t)
	// The user's query restricts candidates to 2007-ish programs via SQL:
	// here, everything except MPFS (simulated by an explicit filter on the
	// concept table joined with a scratch attribute table).
	if _, err := sys.Exec("CREATE TABLE meta (id TEXT, year INT)"); err != nil {
		t.Fatal(err)
	}
	for id, year := range map[string]int{
		"Oprah": 2006, "BBCNews": 2007, "Channel5News": 2007, "MPFS": 1970,
	} {
		if _, err := sys.Exec(
			"INSERT INTO meta VALUES ('" + id + "', " + strconv.Itoa(year) + ")"); err != nil {
			t.Fatal(err)
		}
	}
	results, err := sys.RankQuery("peter",
		"SELECT id FROM meta WHERE year >= 2006", RankOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %v", results)
	}
	// MPFS was filtered by the query (query-dependent part 0); the rest
	// carry their Table 1 scores.
	want := map[string]float64{"Channel5News": 0.6006, "BBCNews": 0.18, "Oprah": 0.071}
	for _, r := range results {
		if math.Abs(r.Score-want[r.ID]) > 1e-9 {
			t.Fatalf("score(%s) = %g", r.ID, r.Score)
		}
	}
	if results[0].ID != "Channel5News" {
		t.Fatalf("order = %v", results)
	}
}

func TestRankQueryPaperIntroShape(t *testing.T) {
	// The paper's introductory query: preferencescore > 0.5, descending.
	sys := buildTVTouch(t)
	results, err := sys.RankQuery("peter",
		"SELECT id FROM c_TvProgram", RankOptions{Threshold: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].ID != "Channel5News" {
		t.Fatalf("results = %v", results)
	}
}

func TestRankQueryAlgorithmsAndErrors(t *testing.T) {
	sys := buildTVTouch(t)
	if _, err := sys.RankQuery("peter", "SELECT id FROM c_TvProgram",
		RankOptions{Algorithm: AlgorithmNaive}); err != nil {
		t.Fatal(err)
	}
	// view and sampled are experiment rankers in internal/core, not
	// algorithms a System ranks with.
	for _, alg := range []Algorithm{"view", "sampled", "bogus"} {
		if _, err := sys.RankQuery("peter", "SELECT id FROM c_TvProgram",
			RankOptions{Algorithm: alg}); err == nil {
			t.Fatalf("%s algorithm accepted for RankQuery", alg)
		}
	}
	if _, err := sys.RankQuery("peter", "SELECT nope FROM c_TvProgram", RankOptions{}); err == nil {
		t.Fatal("bad SQL accepted")
	}
	// First column must be a TEXT id.
	if _, err := sys.Exec("CREATE TABLE nums (n INT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Exec("INSERT INTO nums VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RankQuery("peter", "SELECT n FROM nums", RankOptions{}); err == nil {
		t.Fatal("non-text id column accepted")
	}
}

func TestRankQueryDeduplicatesCandidates(t *testing.T) {
	sys := buildTVTouch(t)
	results, err := sys.RankQuery("peter",
		"SELECT id FROM c_TvProgram UNION ALL SELECT id FROM c_TvProgram", RankOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("duplicates not removed: %v", results)
	}
}
