// Command quickstart reproduces the paper's worked example (§4.2) through
// the public API: four television programs with uncertain features, the two
// scored preference rules R1 and R2, and the context "breakfast during the
// weekend". The printed scores match Table 1's hand calculation:
// Channel 5 news 0.6006, BBC news 0.18, Oprah 0.071, MPFS 0.02.
//
// It then reaches the paper's two other entry points: §5's ranking of a SQL
// query's rows by the context score (RankQuery), and §6's λ-blend of a
// query-dependent language-model score with it (QueryDependentScore over an
// IR index, through CombinedScore).
package main

import (
	"fmt"
	"log"

	contextrank "repro"
)

func main() {
	sys := contextrank.NewSystem()

	// Terminology: one concept for programs, two roles for their features.
	check(sys.DeclareConcept("TvProgram", "Weekend", "Breakfast"))
	check(sys.DeclareRole("hasGenre", "hasSubject"))

	// Table 1: programs and their (possibly uncertain) features.
	for _, p := range []string{"Oprah", "BBC_news", "Channel5_news", "MontyPython"} {
		check(sys.AssertConcept("TvProgram", p, 1))
	}
	check(sys.AssertRole("hasGenre", "Oprah", "HUMAN-INTEREST", 0.85))
	check(sys.AssertRole("hasGenre", "Channel5_news", "HUMAN-INTEREST", 0.95))
	check(sys.AssertRole("hasSubject", "BBC_news", "News", 1.0))
	check(sys.AssertRole("hasSubject", "Channel5_news", "News", 0.85))

	// The user's scored preference rules (§4.1).
	mustRule(sys, "RULE R1 WHEN Weekend PREFER TvProgram AND EXISTS hasGenre.{HUMAN-INTEREST} WITH 0.8")
	mustRule(sys, "RULE R2 WHEN Breakfast PREFER TvProgram AND EXISTS hasSubject.{News} WITH 0.9")

	// Context: Peter is having breakfast during the weekend (certain).
	check(sys.SetContext(contextrank.NewContext("peter").Certain("Weekend").Certain("Breakfast")))

	// The paper's introductory query:
	//   SELECT name, preferencescore FROM Programs
	//   WHERE preferencescore > 0.5 ORDER BY preferencescore DESC
	// — here with threshold 0 so all four scores are visible.
	results, err := sys.RankWith("peter", "TvProgram", contextrank.RankOptions{Explain: true})
	check(err)

	fmt.Println("Context: weekend breakfast")
	fmt.Println("program          preferencescore")
	for _, r := range results {
		fmt.Printf("%-16s %.4f\n", r.ID, r.Score)
	}
	fmt.Println("\nWhy is Channel5_news on top?")
	for _, contrib := range results[0].Explanation.Rules {
		fmt.Println("  " + contrib.String())
	}

	// §5: the user's own query supplies the candidates — here the programs
	// whose subject is news, read off the hasSubject role's table — and the
	// rules reorder them by preferencescore.
	news, err := sys.RankQuery("peter",
		"SELECT src FROM r_hasSubject WHERE dst = 'News'", contextrank.RankOptions{})
	check(err)
	fmt.Println("\nNews programs only (§5, RankQuery):")
	for _, r := range news {
		fmt.Printf("  %-16s %.4f\n", r.ID, r.Score)
	}

	// §6: blend a query-dependent score — the language-model P(q|d) of the
	// keyword query "talk" over the programs' descriptions — with the
	// context score, weighting the two with λ.
	ix := contextrank.NewIRIndex()
	for id, words := range map[string]map[string]int{
		"Oprah":         {"talk": 3, "show": 2, "celebrity": 1},
		"BBC_news":      {"news": 3, "world": 2},
		"Channel5_news": {"news": 2, "celebrity": 2, "talk": 1},
		"MontyPython":   {"comedy": 3, "sketch": 2},
	} {
		check(ix.Add(contextrank.IRDocument{ID: id, Features: words}))
	}
	scores := map[string]float64{}
	for _, r := range results {
		scores[r.ID] = r.Score
	}
	// Jelinek–Mercer smoothing of P(q|d) with the collection model, and the
	// §6 weight of the query-dependent part against the context score.
	const smoothing, lambda = 0.2, 0.5
	qd, err := contextrank.QueryDependentScore(ix, "Oprah", []string{"talk"}, smoothing)
	check(err)
	blended, err := contextrank.CombinedScore(qd, scores["Oprah"], lambda)
	check(err)
	fmt.Printf("\nOprah for the query \"talk\" (§6, λ = %.1f):\n", lambda)
	fmt.Printf("  query-dependent %.4f, context %.4f, combined %.4f\n", qd, scores["Oprah"], blended)
}

func mustRule(sys *contextrank.System, text string) {
	if _, err := sys.AddRule(text); err != nil {
		log.Fatal(err)
	}
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
