package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dl"
	"repro/internal/engine"
	"repro/internal/event"
	"repro/internal/mapping"
	"repro/internal/prefs"
	"repro/internal/situation"
	"repro/internal/workload"
)

// rowByRowRank is the reference a rank is held to bit for bit: every candidate
// scored on its own from DocProbs.Row — and, per multi-rule cluster, the joint
// table's Row — of the side over the plan's handles, the plan's clusters
// multiplied in their order with the singleton factor written out in full,
// then the whole list sorted, thresholded and cut.
func rowByRowRank(t *testing.T, p *Plan, req PlanRequest) []Result {
	t.Helper()
	handles := make([]*mapping.Membership, len(p.rules))
	for i := range p.rules {
		handles[i] = p.rules[i].members
	}
	docs := p.loader.DocSide(handles).Probs()
	if err := docs.Err(); err != nil {
		t.Fatal(err)
	}
	ids, err := resolveCandidates(p.loader, p.user, req)
	if err != nil {
		t.Fatal(err)
	}
	var out []Result
	for _, id := range ids {
		row := docs.Row(id)
		score := 1.0
		for _, cl := range p.clusters {
			if len(cl.rules) == 1 {
				st := &p.rules[cl.rules[0]]
				pX := row[cl.rules[0]]
				s := st.rule.Sigma
				pC := st.ctxProb
				score *= (1 - pC) + pC*(s*pX+(1-s)*(1-pX))
				continue
			}
			tab, err := docs.Joint(cl.rules)
			if err != nil {
				t.Fatal(err)
			}
			score *= expectedFactor(cl.sigmas, cl.ctxProbs, tab.Row(id))
		}
		if req.Threshold > 0 && score <= req.Threshold {
			continue
		}
		out = append(out, Result{ID: id, Score: score})
	}
	slices.SortFunc(out, func(a, b Result) int {
		switch {
		case a.Score > b.Score:
			return -1
		case a.Score < b.Score:
			return 1
		case a.ID < b.ID:
			return -1
		case a.ID > b.ID:
			return 1
		}
		return 0
	})
	if k := req.keep(); k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// assertRowByRow ranks req against the plan — rankInto with a reused scratch,
// and ScoreWith per candidate — and fails unless every result is the
// reference's, score for score with !=.
func assertRowByRow(t *testing.T, label string, p *Plan, sc *PlanScratch, req PlanRequest) {
	t.Helper()
	want := rowByRowRank(t, p, req)
	got, err := p.rankInto(sc, req)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, the reference has %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || got[i].Score != want[i].Score {
			t.Fatalf("%s: result %d = %s:%v, the reference's %s:%v", label, i, got[i].ID, got[i].Score, want[i].ID, want[i].Score)
		}
	}
	for _, r := range want {
		if s, err := p.ScoreWith(sc, r.ID); err != nil || s != r.Score {
			t.Fatalf("%s: ScoreWith(%s) = %v (%v), the reference's %v", label, r.ID, s, err, r.Score)
		}
	}
}

// rankShapes are the request shapes each plan is ranked with: the full sort,
// top-k at a few sizes, with and without a threshold.
func rankShapes(target *dl.Expr, candidates []string, threshold float64) []PlanRequest {
	var out []PlanRequest
	for _, k := range []int{0, 1, 3, 10} {
		for _, th := range []float64{0, threshold} {
			out = append(out, PlanRequest{Target: target, Candidates: candidates, TopK: k, Threshold: th})
		}
	}
	return out
}

// TestRankMatchesRowByRowReference holds the gather-and-score rank to the
// row-by-row reference, bit for bit, on bench-shaped singleton rules (whole
// catalog and one genre), before and after hasGenre writes that the document
// side is carried across by its merge; on seeded rule sets with multi-rule
// clusters — a chain of rules sharing context events and a 3-member exclusive
// location group; on restricted (RankCandidates) plans, which have no side;
// and on a catalog of feature-identical documents whose equal scores straddle
// the top-k boundary.
func TestRankMatchesRowByRowReference(t *testing.T) {
	sc := &PlanScratch{}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	t.Run("bench", func(t *testing.T) {
		for seed := int64(1); seed <= 3; seed++ {
			spec := workload.DefaultSpec()
			spec.Seed, spec.Persons, spec.WatchEvents = seed, 20, 300
			d, err := workload.Generate(spec)
			must(err)
			must(d.ApplyBenchContext(8, false))
			rules, err := d.Rules(8)
			must(err)
			genre := dl.MustParse("TvProgram AND EXISTS hasGenre.{genre00}")
			rng := rand.New(rand.NewSource(seed))
			for step := 0; step < 6; step++ {
				// After a write the compile carries the side across it: one
				// merge, deriving the written programs' rows alone.
				before := mapping.DocRowsComputed()
				p, err := CompilePlan(d.Loader, d.User, rules, nil)
				must(err)
				if n := mapping.DocRowsComputed() - before; step > 0 && n > 4 {
					t.Fatalf("seed %d step %d: the compile derived %d rows: the side was not carried", seed, step, n)
				}
				if len(p.multi) != 0 {
					t.Fatalf("seed %d: bench rules made %d multi-rule clusters", seed, len(p.multi))
				}
				for _, target := range []*dl.Expr{dl.Atom("TvProgram"), genre} {
					for _, req := range rankShapes(target, nil, 0.002) {
						assertRowByRow(t, fmt.Sprintf("seed %d step %d %s %+v", seed, step, target, req), p, sc, req)
					}
				}
				// The write: a genre for a program, a new program in the middle
				// and at the end of the order, or a program retracted.
				switch step % 3 {
				case 0:
					must(d.Loader.AssertRole("hasGenre", fmt.Sprintf("tv%03d", rng.Intn(300)), fmt.Sprintf("genre%02d", rng.Intn(8)), nil))
				case 1:
					for _, id := range []string{fmt.Sprintf("tv%03d5", rng.Intn(300)), fmt.Sprintf("tv9%02d", step)} {
						must(d.Loader.AssertConcept("TvProgram", id, nil))
						must(d.Loader.AssertRole("hasGenre", id, "genre00", nil))
					}
				case 2:
					must(d.Loader.RetractConcept("TvProgram", fmt.Sprintf("tv%03d", rng.Intn(300))))
				}
			}
		}
	})

	t.Run("clusters", func(t *testing.T) {
		for seed := int64(1); seed <= 12; seed++ {
			l, rules, ids := clusteredSetup(t, seed)
			rng := rand.New(rand.NewSource(seed))
			p, err := CompilePlan(l, "u", rules, nil)
			must(err)
			var sizes []int
			for _, cl := range p.clusters {
				sizes = append(sizes, len(cl.rules))
			}
			if !slices.Equal(sizes, []int{4, 3, 1, 1}) {
				t.Fatalf("seed %d: cluster sizes %v, want the chain, the group and two singletons", seed, sizes)
			}
			for _, req := range rankShapes(dl.Atom("Doc"), nil, 0.3) {
				assertRowByRow(t, fmt.Sprintf("seed %d %+v", seed, req), p, sc, req)
			}
			// The same rules restricted to a few candidates, as RankCandidates
			// compiles them: no document side, rows derived per candidate.
			subset := slices.Clone(ids)
			rng.Shuffle(len(subset), func(i, j int) { subset[i], subset[j] = subset[j], subset[i] })
			subset = append(subset[:1+rng.Intn(len(subset))], "nobody")
			only := map[string]bool{}
			for _, id := range subset {
				only[id] = true
			}
			restricted, err := compilePlan(l, "u", rules, only, nil)
			must(err)
			if restricted.docs != nil {
				t.Fatal("a restricted plan has a document side")
			}
			for _, req := range rankShapes(nil, subset, 0.3) {
				assertRowByRow(t, fmt.Sprintf("seed %d restricted %+v", seed, req), restricted, sc, req)
				viaRanker, err := Rank(l, Request{User: "u", Rules: rules, PlanRequest: req})
				must(err)
				if want := rowByRowRank(t, restricted, req); !slices.Equal(viaRanker, want) {
					t.Fatalf("seed %d: the factorized ranker's restricted rank %v, the reference's %v", seed, viaRanker, want)
				}
			}
		}
	})

	t.Run("ties", func(t *testing.T) {
		l := mapping.NewLoader(engine.New())
		for _, c := range []string{"Doc", "FA", "FB"} {
			must(l.DeclareConcept(c))
		}
		must(l.DB().Space().Declare("maybe", 0.6))
		var ids []string
		for i := 0; i < 30; i++ {
			id := fmt.Sprintf("d%02d", (i*7)%30) // asserted out of order
			ids = append(ids, id)
			must(l.AssertConcept("Doc", id, nil))
			switch i % 3 { // three score classes of ten documents
			case 0:
				must(l.AssertConcept("FA", id, nil))
			case 1:
				must(l.AssertConcept("FB", id, event.Basic("maybe")))
			}
		}
		must(situation.New("u").Certain("Ctx").Apply(l))
		rules := []prefs.Rule{
			{Name: "ra", Context: dl.Atom("Ctx"), Preference: dl.Atom("FA"), Sigma: 0.9},
			{Name: "rb", Context: dl.Atom("Ctx"), Preference: dl.Atom("FB"), Sigma: 0.7},
		}
		p, err := CompilePlan(l, "u", rules, nil)
		must(err)
		for k := 1; k <= 31; k++ {
			for _, req := range []PlanRequest{{Target: dl.Atom("Doc"), TopK: k}, {Candidates: ids, TopK: k}, {Target: dl.Atom("Doc"), Limit: k}} {
				assertRowByRow(t, fmt.Sprintf("ties %+v", req), p, sc, req)
			}
		}
	})
}

// clusteredSetup builds a seeded catalog whose rules cluster: a chain of four
// rules whose compound contexts share events pairwise (X, X∧Y, Y∧Z, Z), three
// rules on the members of an exclusive location group, and two independent
// rules, each rule preferring a feature of its own; documents carry features
// certainly, on independent events, or — the chain's middle two — on one event
// of the document's. It returns the loader, the rules and the documents.
func clusteredSetup(t *testing.T, seed int64) (*mapping.Loader, []prefs.Rule, []string) {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	l := mapping.NewLoader(engine.New())
	space := l.DB().Space()
	features := []string{"F0", "F1", "F2", "F3", "F4", "F5", "F6", "F7", "F8"}
	for _, c := range append([]string{"Doc", "X", "Y", "Z", "Solo", "Kitchen", "Living", "Bedroom"}, features...) {
		must(l.DeclareConcept(c))
	}
	var ids []string
	for d := 0; d < 25+rng.Intn(20); d++ {
		id := fmt.Sprintf("doc%03d", rng.Intn(1000))
		if slices.Contains(ids, id) {
			continue
		}
		ids = append(ids, id)
		must(l.AssertConcept("Doc", id, nil))
		shared := fmt.Sprintf("s_%s", id)
		must(space.Declare(shared, 0.1+0.8*rng.Float64()))
		for f, feature := range features {
			switch rng.Intn(4) {
			case 0: // certain
				must(l.AssertConcept(feature, id, nil))
			case 1: // on an event of its own
				ev := fmt.Sprintf("e_%s_%d", id, f)
				must(space.Declare(ev, 0.1+0.8*rng.Float64()))
				must(l.AssertConcept(feature, id, event.Basic(ev)))
			case 2: // the chain's middle two on the document's shared event
				if f == 1 || f == 2 {
					must(l.AssertConcept(feature, id, event.Basic(shared)))
				}
			}
		}
	}
	must(situation.New("u").
		AddExclusive("location", []string{"Kitchen", "Living", "Bedroom"}, []float64{0.3, 0.25, 0.2 + 0.2*rng.Float64()}).
		Add("X", 0.2+0.7*rng.Float64()).
		Add("Y", 0.2+0.7*rng.Float64()).
		Add("Z", 0.2+0.7*rng.Float64()).
		Add("Solo", 0.2+0.7*rng.Float64()).
		Apply(l))
	sigma := func() float64 { return 0.05 + 0.9*rng.Float64() }
	rules := []prefs.Rule{
		{Name: "chain0", Context: dl.Atom("X"), Preference: dl.Atom("F0"), Sigma: sigma()},
		{Name: "chain1", Context: dl.MustParse("X AND Y"), Preference: dl.Atom("F1"), Sigma: sigma()},
		{Name: "chain2", Context: dl.MustParse("Y AND Z"), Preference: dl.Atom("F2"), Sigma: sigma()},
		{Name: "chain3", Context: dl.Atom("Z"), Preference: dl.Atom("F3"), Sigma: sigma()},
		{Name: "kitchen", Context: dl.Atom("Kitchen"), Preference: dl.Atom("F4"), Sigma: sigma()},
		{Name: "living", Context: dl.Atom("Living"), Preference: dl.Atom("F5"), Sigma: sigma()},
		{Name: "bedroom", Context: dl.Atom("Bedroom"), Preference: dl.Atom("F6"), Sigma: sigma()},
		{Name: "solo", Context: dl.Atom("Solo"), Preference: dl.Atom("F7"), Sigma: sigma()},
		{Name: "always", Context: dl.Top(), Preference: dl.Atom("F8"), Sigma: sigma()},
	}
	slices.Sort(ids)
	return l, rules, ids
}
