// Benchmarks for compiled rank plans: the compile cost paid once per
// (user, rule set, context epoch), and the per-candidate scoring cost of
// the plan path versus the retained pre-plan factorized implementation.
// CI gates these next to the serving benchmarks: each bound is a row of
// internal/ci/benchcheck/gates.json.
package core

import (
	"fmt"
	"testing"

	"repro/internal/dl"
	"repro/internal/prefs"
	"repro/internal/situation"
	"repro/internal/workload"
)

// planBenchSetup builds a TV-watcher catalog of the given size with k
// uncertain-context rules (no pruning, fresh context events — the rankers'
// worst case).
func planBenchSetup(b *testing.B, programs, k int) (*workload.Dataset, []prefs.Rule) {
	b.Helper()
	spec := workload.Spec{
		Seed:                 1,
		Persons:              50,
		Programs:             programs,
		Genres:               12,
		Subjects:             6,
		Activities:           4,
		Rooms:                5,
		WatchEvents:          programs,
		UncertainFeatureProb: 0.5,
	}
	d, err := workload.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	if err := d.ApplyBenchContext(k, false); err != nil {
		b.Fatal(err)
	}
	rules, err := d.Rules(k)
	if err != nil {
		b.Fatal(err)
	}
	return d, rules
}

// BenchmarkFactorizedPlanCompile measures one plan compilation — rule
// resolution, preference-view membership fetch, pruning, footprint
// clustering, context tables — over a 1000-document catalog with 8 rules.
func BenchmarkFactorizedPlanCompile(b *testing.B) {
	d, rules := planBenchSetup(b, 1000, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := CompilePlan(d.Loader, d.User, rules, nil)
		if err != nil {
			b.Fatal(err)
		}
		if plan.ActiveRules() != len(rules) {
			b.Fatalf("pruned %d rules unexpectedly", len(rules)-plan.ActiveRules())
		}
	}
}

// BenchmarkPlanScoreLargeCatalog measures a full uncached rank of the
// whole catalog with 8 rules: the compiled-plan path at 100/1k/10k
// candidates, and the pre-plan per-candidate path (which re-runs
// clustering and the context distributions for every document) as the
// baseline at 100/1k. The ns/op ratio at matching sizes is the recorded
// RANK-PLAN speedup in EXPERIMENTS.md.
func BenchmarkPlanScoreLargeCatalog(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("plan/candidates=%d", n), func(b *testing.B) {
			d, rules := planBenchSetup(b, n, 8)
			// Compile once, rank many times: the serving layer's steady
			// state, where the plan cache hands every uncached rank the
			// compiled plan (BenchmarkFactorizedPlanCompile prices the
			// compile itself).
			plan, err := CompilePlan(d.Loader, d.User, rules, nil)
			if err != nil {
				b.Fatal(err)
			}
			req := PlanRequest{Target: dl.Atom("TvProgram")}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := plan.Rank(req)
				if err != nil {
					b.Fatal(err)
				}
				if len(res) != n {
					b.Fatalf("%d results, want %d", len(res), n)
				}
			}
		})
	}
	for _, n := range []int{100, 1000} {
		b.Run(fmt.Sprintf("warm/candidates=%d", n), func(b *testing.B) {
			// The steady-state hot path: reused scratch, the shared document
			// side's rows, results aliased into the scratch arena.
			// CI caps this at 0 allocs/op (a cap row of gates.json); any
			// new allocation on the cached-plan score path fails the gate.
			d, rules := planBenchSetup(b, n, 8)
			plan, err := CompilePlan(d.Loader, d.User, rules, nil)
			if err != nil {
				b.Fatal(err)
			}
			sc := &PlanScratch{}
			req := PlanRequest{Target: dl.Atom("TvProgram")}
			if _, err := plan.rankInto(sc, req); err != nil {
				b.Fatal(err) // size the scratch
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := plan.rankInto(sc, req)
				if err != nil {
					b.Fatal(err)
				}
				if len(res) != n {
					b.Fatalf("%d results, want %d", len(res), n)
				}
			}
		})
	}
	for _, tc := range []struct{ name, target string }{
		{"", "TvProgram"},
		{"/target=genre", "TvProgram AND EXISTS hasGenre.{genre00}"},
	} {
		b.Run("warm/candidates=300"+tc.name, func(b *testing.B) {
			// The end-to-end benchmark's uncached rank: a 300-program catalog,
			// 8 rules, top 10 — of the whole catalog, or of one genre's
			// programs (cold-rank's narrow targets). Capped at 0 allocs/op
			// like the other warm sub-benchmarks.
			d, rules := planBenchSetup(b, 300, 8)
			plan, err := CompilePlan(d.Loader, d.User, rules, nil)
			if err != nil {
				b.Fatal(err)
			}
			target, err := dl.Parse(tc.target)
			if err != nil {
				b.Fatal(err)
			}
			sc := &PlanScratch{}
			req := PlanRequest{Target: target, TopK: 10}
			if _, err := plan.rankInto(sc, req); err != nil {
				b.Fatal(err) // size the scratch
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := plan.rankInto(sc, req)
				if err != nil {
					b.Fatal(err)
				}
				if len(res) != 10 {
					b.Fatalf("%d results, want 10", len(res))
				}
			}
		})
	}
	for _, n := range []int{100, 1000} {
		b.Run(fmt.Sprintf("legacy/candidates=%d", n), func(b *testing.B) {
			d, rules := planBenchSetup(b, n, 8)
			req := Request{User: d.User, Rules: rules, PlanRequest: PlanRequest{Target: dl.Atom("TvProgram")}}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := perCandidateRank(d.Loader, req)
				if err != nil {
					b.Fatal(err)
				}
				if len(res) != n {
					b.Fatalf("%d results, want %d", len(res), n)
				}
			}
		})
	}
}

// BenchmarkPlanRankAfterApply prices the poll after a context change — compile
// the user's plan, rank the 1000-document catalog — for the two kinds of
// change there are, five of the eight rules active in both so they price the
// same arithmetic: mode=same re-applies BenchCtx0..4 with BenchCtx0's
// probability nudged (the active set stands), mode=rotated applies BenchCtx0
// plus four of BenchCtx1..7 chosen by iteration (the set of active rules, and
// with it the plan's cluster layout, changes every time — the shape of the
// end-to-end benchmark's context churn). The document side belongs to the
// rules' membership handles, which neither kind of change touches, so the two
// must cost about the same (the rotated scores sort differently, some 5 %):
// CI gates rotated <= 1.25x same from one head run (a ratio row of gates.json).
func BenchmarkPlanRankAfterApply(b *testing.B) {
	const n, k = 1000, 8
	req := PlanRequest{Target: dl.Atom("TvProgram")}
	for _, mode := range []string{"same", "rotated"} {
		b.Run(fmt.Sprintf("%s/candidates=%d", mode, n), func(b *testing.B) {
			d, rules := planBenchSetup(b, n, k)
			// The memberships and the document side the first compile
			// builds are not the poll's to pay.
			if _, err := CompilePlan(d.Loader, d.User, rules, nil); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				ctx := situation.New(d.User)
				ctx.Add(workload.BenchContextConcept(0), 0.5+0.4*float64(i%7)/7)
				for j := 0; j < 4; j++ {
					c := 1 + j
					if mode == "rotated" {
						c = 1 + (i+j)%7
					}
					ctx.Add(workload.BenchContextConcept(c), 0.9)
				}
				if err := ctx.Apply(d.Loader); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				plan, err := CompilePlan(d.Loader, d.User, rules, nil)
				if err != nil {
					b.Fatal(err)
				}
				res, err := plan.Rank(req)
				if err != nil {
					b.Fatal(err)
				}
				if len(res) != n || plan.ActiveRules() != 5 {
					b.Fatalf("%d results under %d active rules, want %d under 5", len(res), plan.ActiveRules(), n)
				}
			}
		})
	}
}

// BenchmarkPlanCompileAfterApply prices the compile alone after the user's own
// context apply — the poll's plan work without the rank: eight context
// look-ups, eight memo hits for the preference handles, the document side
// settled past the retired events, the partition and the context tables. The catalog is DefaultSpec's with 64 other owners'
// contexts applied, so every context concept holds a row per owner; each
// iteration applies BenchCtx0 plus four of BenchCtx1..7 chosen by iteration
// (the active set and the cluster layout change every time) off the clock.
// CI caps programs=300's allocations and holds programs=3000 to 1.25x
// programs=300 from one head run (a cap and a ratio row of gates.json):
// neither the settle nor the partition may grow with the catalog's footprint.
func BenchmarkPlanCompileAfterApply(b *testing.B) {
	const k, owners = 8, 64
	for _, programs := range []int{300, 3000} {
		b.Run(fmt.Sprintf("programs=%d", programs), func(b *testing.B) {
			spec := workload.DefaultSpec()
			spec.Programs = programs
			d, err := workload.Generate(spec)
			if err != nil {
				b.Fatal(err)
			}
			rules, err := d.Rules(k)
			if err != nil {
				b.Fatal(err)
			}
			apply := func(user string, i int) {
				ctx := situation.New(user).Add(workload.BenchContextConcept(0), 0.5+0.4*float64(i%7)/7)
				for j := 0; j < 4; j++ {
					ctx.Add(workload.BenchContextConcept(1+(i+j)%7), 0.9)
				}
				if _, err := ctx.ApplyOwned(d.Loader); err != nil {
					b.Fatal(err)
				}
			}
			for o := 0; o < owners; o++ {
				apply(fmt.Sprintf("owner%02d", o), o)
			}
			apply(d.User, 0)
			plan, err := CompilePlan(d.Loader, d.User, rules, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				apply(d.User, i+1)
				b.StartTimer()
				if plan, err = CompilePlan(d.Loader, d.User, rules, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if plan.ActiveRules() != 5 {
				b.Fatalf("%d active rules, want 5", plan.ActiveRules())
			}
		})
	}
}

// BenchmarkPlanCompileAfterAssert prices what one vocabulary write costs the
// first user to rank after it: one hasGenre tuple is asserted outside the
// timer (every bench rule's preference reads r_hasGenre, so all 8 memberships
// go stale), then the plan is compiled again — 8 patched handles, the document
// side carried across the write with the written program's row derived again —
// and the 1000-document catalog re-ranked. Later users' compiles find the
// handles in the loader's memo and the carried side beside them;
// BenchmarkVocabWriteRank (root package) prices that.
func BenchmarkPlanCompileAfterAssert(b *testing.B) {
	const n, k = 1000, 8
	d, rules := planBenchSetup(b, n, k)
	req := PlanRequest{Target: dl.Atom("TvProgram")}
	plan, err := CompilePlan(d.Loader, d.User, rules, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		prog, genre := fmt.Sprintf("tv%03d", i%n), d.Genres[(i/n)%len(d.Genres)]
		if err := d.Loader.AssertRole("hasGenre", prog, genre, nil); err != nil {
			b.Fatal(err)
		}
		if plan.Current() {
			b.Fatal("the assert left the plan current")
		}
		b.StartTimer()
		if plan, err = CompilePlan(d.Loader, d.User, rules, nil); err != nil {
			b.Fatal(err)
		}
		res, err := plan.Rank(req)
		if err != nil {
			b.Fatal(err)
		}
		if len(res) != n {
			b.Fatalf("%d results, want %d", len(res), n)
		}
	}
}

// BenchmarkPlanRankTopK prices top-k selection against the full sort over
// a 10k-candidate catalog with a warm plan: the scoring work is identical,
// so the whole delta is sort-and-copy vs the bounded heap. A ratio row of
// CI's gates.json, top10 over full from one run with bound -0.5, turns
// "top10 is at least 2× faster than full" into a gate.
func BenchmarkPlanRankTopK(b *testing.B) {
	const n = 10000
	d, rules := planBenchSetup(b, n, 8)
	plan, err := CompilePlan(d.Loader, d.User, rules, nil)
	if err != nil {
		b.Fatal(err)
	}
	sc := &PlanScratch{}
	if _, err := plan.rankInto(sc, PlanRequest{Target: dl.Atom("TvProgram")}); err != nil {
		b.Fatal(err) // size the scratch
	}
	for _, bench := range []struct {
		name string
		topk int
		want int
	}{
		{"candidates=10000/full", 0, n},
		{"candidates=10000/top10", 10, 10},
	} {
		b.Run(bench.name, func(b *testing.B) {
			req := PlanRequest{Target: dl.Atom("TvProgram"), TopK: bench.topk}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := plan.rankInto(sc, req)
				if err != nil {
					b.Fatal(err)
				}
				if len(res) != bench.want {
					b.Fatalf("%d results, want %d", len(res), bench.want)
				}
			}
		})
	}
}
