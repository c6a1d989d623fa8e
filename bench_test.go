// Benchmarks regenerating the paper's evaluation artifacts — one benchmark
// per table/figure plus the ablations (see DESIGN.md §4 for the index and
// EXPERIMENTS.md for recorded paper-vs-measured results).
//
// The headline scalability numbers use the scaled-down dataset so the bench
// suite terminates; the full paper-scale sweep (≈11k tuples, exponential
// blow-up, DNF at 6 rules under a 60s budget) is regenerated by
// `go run ./cmd/carbench -exp e3`.
package contextrank

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dl"
	"repro/internal/engine"
	"repro/internal/event"
	"repro/internal/experiments"
	"repro/internal/history"
	"repro/internal/mapping"
	"repro/internal/prefs"
	"repro/internal/workload"
)

// BenchmarkE1Table1 measures the §4.2 worked example (Table 1: four
// programs, two rules, certain context) on each ranker.
func BenchmarkE1Table1(b *testing.B) {
	l, rules, err := experiments.SetupTable1()
	if err != nil {
		b.Fatal(err)
	}
	req := core.Request{User: "peter", Rules: rules, PlanRequest: core.PlanRequest{Target: dl.Atom("TvProgram")}}
	for _, name := range []string{"naive", "view", "factorized"} {
		rank := experiments.Rankers[name](l)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				results, err := rank(req)
				if err != nil {
					b.Fatal(err)
				}
				if len(results) != 4 {
					b.Fatalf("results = %v", results)
				}
			}
		})
	}
}

// BenchmarkE2Figure1 measures the Figure 1 reproduction: generating a
// 5000-episode workday-morning history and mining σ back.
func BenchmarkE2Figure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunE2(5000, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if res.PNeither <= 0 {
			b.Fatal("degenerate mining result")
		}
	}
}

// benchDataset builds the scaled-down TVTouch dataset once per benchmark.
func benchDataset(b *testing.B, k int) *workload.Dataset {
	b.Helper()
	d, err := workload.Generate(workload.SmallSpec())
	if err != nil {
		b.Fatal(err)
	}
	if err := d.ApplyBenchContext(k, false); err != nil {
		b.Fatal(err)
	}
	return d
}

// BenchmarkE3RuleScaling measures the §5 scalability experiment: query time
// of the big preference view as the rule count grows. The growth per added
// rule — not the absolute time — is the reproduced result.
func BenchmarkE3RuleScaling(b *testing.B) {
	const maxK = 4
	d := benchDataset(b, maxK)
	ranker := experiments.NewViewRanker(d.Loader)
	for k := 1; k <= maxK; k++ {
		rules, err := d.Rules(k)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("rules=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ranker.Rank(core.Request{
					User:        d.User,
					Rules:       rules,
					PlanRequest: core.PlanRequest{Target: dl.Atom("TvProgram")},
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkA1Ablation compares the three rankers at a fixed rule count —
// the §6 "Performance" story: view and naive are exponential, factorized is
// not.
func BenchmarkA1Ablation(b *testing.B) {
	const k = 4
	d := benchDataset(b, k)
	rules, err := d.Rules(k)
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range []string{"view", "naive", "factorized"} {
		rank := experiments.Rankers[name](d.Loader)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := rank(core.Request{
					User:        d.User,
					Rules:       rules,
					PlanRequest: core.PlanRequest{Target: dl.Atom("TvProgram")},
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkA1FactorizedManyRules shows the factorized ranker staying
// tractable far past the view ranker's cliff.
func BenchmarkA1FactorizedManyRules(b *testing.B) {
	for _, k := range []int{4, 8, 12, 16} {
		b.Run(fmt.Sprintf("rules=%d", k), func(b *testing.B) {
			d := benchDataset(b, k)
			rules, err := d.Rules(k)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Rank(d.Loader, core.Request{
					User:        d.User,
					Rules:       rules,
					PlanRequest: core.PlanRequest{Target: dl.Atom("TvProgram")},
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkA4Sampled measures the Monte Carlo ranker per sample budget on
// the 6-rule workload the exact view ranker already struggles with.
func BenchmarkA4Sampled(b *testing.B) {
	const k = 6
	d := benchDataset(b, k)
	rules, err := d.Rules(k)
	if err != nil {
		b.Fatal(err)
	}
	req := core.Request{User: d.User, Rules: rules, PlanRequest: core.PlanRequest{Target: dl.Atom("TvProgram")}}
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("samples=%d", n), func(b *testing.B) {
			ranker := experiments.NewSampledRanker(d.Loader, n, 1)
			for i := 0; i < b.N; i++ {
				if _, err := ranker.Rank(req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkA2Smoothing measures the §6 λ-weighting sweep.
func BenchmarkA2Smoothing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunA2(int64(i) + 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkA3Mining measures σ mining over a 1000-episode log.
func BenchmarkA3Mining(b *testing.B) {
	gen := &history.Generator{
		Truth: []history.GroundTruth{
			{Context: "morning", DocFeature: "traffic", Sigma: 0.8},
			{Context: "morning", DocFeature: "weather", Sigma: 0.6},
		},
		Contexts: []string{"morning"},
		Docs: []history.Doc{
			{ID: "t", Features: map[string]bool{"traffic": true}},
			{ID: "w", Features: map[string]bool{"weather": true}},
		},
		Rng: rand.New(rand.NewSource(1)),
	}
	log := history.NewLog()
	if err := gen.Generate(log, 1000); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ests := log.MineAll(1)
		if len(ests) == 0 {
			b.Fatal("no estimates")
		}
	}
}

// ---------------------------------------------------------------------------
// Micro-benchmarks for the load-bearing substrates.

// BenchmarkEventProbExact measures exact probability computation over a
// conjunction of eight independent uncertain events (the per-term cost
// inside the big preference view).
func BenchmarkEventProbExact(b *testing.B) {
	space := event.NewSpace()
	exprs := make([]*event.Expr, 8)
	for i := range exprs {
		name := fmt.Sprintf("e%d", i)
		if err := space.Declare(name, 0.5+float64(i)/100); err != nil {
			b.Fatal(err)
		}
		exprs[i] = event.Basic(name)
	}
	conj := event.And(exprs...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Vary negation to defeat the memo cache and measure enumeration.
		e := conj
		if i%2 == 0 {
			e = event.And(conj, event.Not(exprs[i%8]))
		}
		if _, err := space.Prob(e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConceptViewQuery measures looking up + querying a conjunctive
// concept expression's compiled view over the small dataset — what one miss
// of the loader's membership memo costs (Loader.Members itself answers a
// repeated look-up from the memo).
func BenchmarkConceptViewQuery(b *testing.B) {
	d, err := workload.Generate(workload.SmallSpec())
	if err != nil {
		b.Fatal(err)
	}
	expr := dl.MustParse("TvProgram AND EXISTS hasGenre.{genre00}")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		view, err := d.Loader.ViewFor(expr)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := d.Loader.DB().Query("SELECT id, ev FROM " + view); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSQLJoinAggregate measures the embedded engine's hash join +
// grouping path on the generated role tables.
func BenchmarkSQLJoinAggregate(b *testing.B) {
	d, err := workload.Generate(workload.SmallSpec())
	if err != nil {
		b.Fatal(err)
	}
	db := d.Loader.DB()
	q := "SELECT g.dst, COUNT(*) AS n FROM c_TvProgram p JOIN r_hasGenre g ON p.id = g.src GROUP BY g.dst ORDER BY n DESC"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRulePipeline measures the full public-API path: context switch +
// factorized ranking, the steady-state cost of a context-aware application.
func BenchmarkRulePipeline(b *testing.B) {
	sys := NewSystem()
	if err := sys.DeclareConcept("TvProgram"); err != nil {
		b.Fatal(err)
	}
	if err := sys.DeclareRole("hasGenre"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		id := fmt.Sprintf("tv%02d", i)
		if err := sys.AssertConcept("TvProgram", id, 1); err != nil {
			b.Fatal(err)
		}
		if err := sys.AssertRole("hasGenre", id, fmt.Sprintf("g%d", i%5), 0.9); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		rule := fmt.Sprintf("RULE r%d WHEN Ctx%d PREFER TvProgram AND EXISTS hasGenre.{g%d} WITH 0.8", i, i, i)
		if _, err := sys.AddRule(rule); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := NewContext("peter")
		for c := 0; c < 5; c++ {
			ctx.Add(fmt.Sprintf("Ctx%d", c), 0.9)
		}
		if err := sys.SetContext(ctx); err != nil {
			b.Fatal(err)
		}
		if _, err := sys.Rank("peter", "TvProgram"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMappingAssert measures ABox assertion throughput (dataset
// loading cost).
func BenchmarkMappingAssert(b *testing.B) {
	db := engine.New()
	l := mapping.NewLoader(db)
	if err := l.DeclareConcept("C"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.AssertConcept("C", fmt.Sprintf("x%d", i), nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPrefsParse measures rule parsing.
func BenchmarkPrefsParse(b *testing.B) {
	const text = "RULE R1 WHEN Weekend AND Morning PREFER TvProgram AND EXISTS hasGenre.{HUMAN-INTEREST} WITH 0.8"
	for i := 0; i < b.N; i++ {
		if _, err := prefs.ParseRule(text); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkViewBuild measures only the construction of the big preference
// view (SQL generation + registration), separate from its evaluation.
func BenchmarkViewBuild(b *testing.B) {
	const k = 6
	d := benchDataset(b, k)
	rules, err := d.Rules(k)
	if err != nil {
		b.Fatal(err)
	}
	vr := experiments.NewViewRanker(d.Loader)
	req := core.Request{User: d.User, Rules: rules, PlanRequest: core.PlanRequest{Target: dl.Atom("TvProgram")}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vr.BuildPreferenceView(req); err != nil {
			b.Fatal(err)
		}
	}
}

// Benchmark sweep points that would not terminate (view ranker ≥6 rules at
// paper scale) are intentionally excluded here; see cmd/carbench -exp e3,
// whose per-point timeout reports them as DNF like the paper does.
