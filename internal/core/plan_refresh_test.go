package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/dl"
	"repro/internal/engine"
	"repro/internal/event"
	"repro/internal/mapping"
	"repro/internal/prefs"
	"repro/internal/situation"
	"repro/internal/storage"
)

// assertBitIdentical fails unless the two result lists agree exactly —
// same ids, same order, and float64-equal scores. Refresh promises scores
// bit-identical to a fresh compile (same partition, same association
// order), so no epsilon is allowed here.
func assertBitIdentical(t *testing.T, label string, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || got[i].Score != want[i].Score {
			t.Fatalf("%s: result %d = %s:%v, want %s:%v",
				label, i, got[i].ID, got[i].Score, want[i].ID, want[i].Score)
		}
	}
}

// assertHandlesExact holds what a plan ranks by against the store itself,
// rule by rule: the preference's membership handle — patched, queried or
// carried, whatever the refreshes made of it — equals an un-memoized query of
// the preference's view, event for event, and the handle's block footprint
// equals a walk over those events. A fresh CompilePlan takes its handles from
// the same memo, so without this the rank comparison would not notice a
// handle that is wrong for both.
func assertHandlesExact(t *testing.T, label string, p *Plan) {
	t.Helper()
	for i := range p.rules {
		pr := &p.rules[i]
		view, err := p.loader.ViewFor(pr.rule.Preference)
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.loader.DB().Query("SELECT id, ev FROM " + view)
		if err != nil {
			t.Fatal(err)
		}
		want := make(map[string]*event.Expr, len(res.Rows))
		for _, r := range res.Rows {
			ev := event.False()
			if r[1].T == storage.TypeEvent {
				ev = r[1].Ev
			}
			if old, ok := want[r[0].S]; ok {
				ev = event.Or(old, ev)
			}
			want[r[0].S] = ev
		}
		got := pr.members
		if len(got.Events) != len(want) || len(got.IDs) != len(want) || !slices.IsSorted(got.IDs) {
			t.Fatalf("%s: rule %s: %d events, ids %v, want %d members", label, pr.rule.Name, len(got.Events), got.IDs, len(want))
		}
		blocks := map[string]bool{}
		for _, id := range got.IDs {
			if !event.Equal(got.Events[id], want[id]) {
				t.Fatalf("%s: rule %s: member %s has event %s, want %s", label, pr.rule.Name, id, got.Events[id], want[id])
			}
			if err := p.space.Blocks(want[id], blocks); err != nil {
				t.Fatal(err)
			}
		}
		keys, err := got.Blocks()
		if err != nil {
			t.Fatal(err)
		}
		if len(keys) != len(blocks) || !slices.IsSorted(keys) {
			t.Fatalf("%s: rule %s: block footprint %v, want the %d keys of %v", label, pr.rule.Name, keys, len(blocks), blocks)
		}
		for _, k := range keys {
			if !blocks[k] {
				t.Fatalf("%s: rule %s: block footprint %v names %s, which no member's event mentions", label, pr.rule.Name, keys, k)
			}
		}
	}
}

// TestRefreshMatchesFreshCompile walks a plan through successive context
// applies and vocabulary writes — certain and uncertain concept and role
// asserts, a merge into an existing row, a retract, a new candidate, dl_domain
// growth on its own, a SQL delete and insert, another user's owner-scoped
// apply, more patches between two refreshes than a handle remembers — via
// Refresh, and checks every intermediate ranking bit-identical to a
// from-scratch CompilePlan of the same state, and every handle it ranks by
// identical to a query of its view.
func TestRefreshMatchesFreshCompile(t *testing.T) {
	l, rules := correlatedSetup(t)
	db := l.DB()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(l.DeclareRole("about"))
	must(l.DeclareConcept("Topic"))
	must(l.DeclareConcept("Other"))
	must(l.AssertConcept("Topic", "news", nil))
	must(l.AssertRole("about", "d3", "news", nil))
	rules = append(rules,
		// A role-reading preference and one that reads the closed domain.
		prefs.Rule{Name: "r5", Context: dl.Atom("Weekend"), Preference: dl.Exists("about", dl.Atom("Topic")), Sigma: 0.75},
		prefs.Rule{Name: "r6", Context: dl.Atom("Kitchen"), Preference: dl.And(dl.Atom("Doc"), dl.Not(dl.Atom("F3"))), Sigma: 0.4},
	)
	plan, err := CompilePlan(l, "u", rules)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the doc-distribution cache so the refresh has something to adopt.
	if _, err := plan.Rank(PlanRequest{Target: dl.Atom("Doc")}); err != nil {
		t.Fatal(err)
	}
	apply := func(ctx *situation.Context) func() { return func() { must(ctx.Apply(l)) } }
	declare := func(name string, p float64) *event.Expr {
		must(db.Space().Declare(name, p))
		return event.Basic(name)
	}
	steps := []struct {
		name string
		do   func()
	}{
		// Same shape, different probabilities: the single-cluster change.
		{"context: new probabilities", apply(situation.New("u").
			AddExclusive("location", []string{"Kitchen", "Living"}, []float64{0.2, 0.7}).
			Add("Weekend", 0.5))},
		// Drop the exclusive group: partition changes, rules re-cluster.
		{"context: no exclusive group", apply(situation.New("u").Add("Kitchen", 0.4).Add("Weekend", 0.9))},
		{"context: one rule left", apply(situation.New("u").Add("Weekend", 0.3))},
		{"context: the full shape again", apply(situation.New("u").
			AddExclusive("location", []string{"Kitchen", "Living"}, []float64{0.5, 0.4}).
			Add("Weekend", 0.8))},
		{"certain concept assert", func() { must(l.AssertConcept("F3", "d3", nil)) }},
		{"uncertain concept assert", func() { must(l.AssertConcept("F2", "d2", declare("late", 0.3))) }},
		// d1's F1 becomes shared ∨ solo_b: r1 now correlates with r3 over d2.
		{"assert merging into a row", func() { must(l.AssertConcept("F1", "d1", event.Basic("solo_b"))) }},
		{"retract", func() { must(l.RetractConcept("F1", "d2")) }},
		{"certain role assert", func() { must(l.AssertRole("about", "d1", "news", nil)) }},
		{"uncertain role assert", func() { must(l.AssertRole("about", "d2", "news", declare("maybe", 0.5))) }},
		{"uncertain filler", func() {
			must(l.AssertConcept("Topic", "sports", declare("sporty", 0.6)))
			must(l.AssertRole("about", "d3", "sports", nil))
		}},
		{"new candidate", func() { must(l.AssertConcept("Doc", "d4", nil)) }},
		// A first-seen individual in a table no rule reads: only dl_domain,
		// which r6's ¬ reads, moves.
		{"dl_domain growth alone", func() { must(l.AssertConcept("Other", "stranger", nil)) }},
		{"write no rule reads", func() { must(l.AssertConcept("Other", "d1", nil)) }},
		{"sql delete", func() {
			_, err := db.Exec("DELETE FROM c_F2 WHERE id = 'd1'")
			must(err)
		}},
		{"loader write onto the queried handle", func() { must(l.AssertConcept("F2", "d3", declare("later", 0.7))) }},
		{"sql insert between loader writes", func() {
			must(l.AssertConcept("F3", "d1", nil))
			_, err := db.Exec("INSERT INTO c_F3 (id, ev) VALUES ('d4', EV_TRUE())")
			must(err)
			must(l.RetractConcept("F3", "d3"))
		}},
		// Each write is looked up, and so patched into a handle of its own,
		// before the next: the plan's F1 handle falls off the newest one's
		// history (16 moving patches) and the refresh must compare the
		// memberships itself.
		{"more patches than a handle remembers", func() {
			for i := 0; i < 40; i++ {
				if i%2 == 0 {
					must(l.AssertConcept("F1", "d3", nil))
				} else {
					must(l.RetractConcept("F1", "d3"))
				}
				for _, r := range rules {
					_, err := l.Members(r.Preference)
					must(err)
				}
			}
			must(l.AssertConcept("F1", "d4", declare("last", 0.2)))
		}},
		// Another user's owner-scoped apply registers a first-seen individual:
		// dl_domain moves through the logged path, under r6's ¬.
		{"another user's apply", func() {
			_, err := situation.New("visitor").Certain("Weekend").ApplyOwned(l)
			must(err)
		}},
		{"context after the writes", apply(situation.New("u").Add("Kitchen", 0.6).Add("Weekend", 0.2))},
	}
	for _, s := range steps {
		s.do()
		// A context apply and a write to Other leave every preference's
		// tables alone; every other step writes one.
		if want := strings.HasPrefix(s.name, "context") || s.name == "write no rule reads"; plan.Current() != want {
			t.Fatalf("%s: plan.Current() = %v, want %v", s.name, plan.Current(), want)
		}
		// Which way the refresh learns what moved: from the new handles
		// themselves, except across a view query (SQL wrote) or a history that
		// outran them — then it has to compare the memberships.
		tracked := true
		for i, r := range rules {
			cur, err := l.Members(r.Preference)
			must(err)
			if _, ok := cur.ChangedSince(plan.rules[i].members); !ok {
				tracked = false
			}
		}
		if want := !strings.Contains(s.name, "sql") && !strings.HasPrefix(s.name, "more patches"); tracked != want {
			t.Fatalf("%s: the new handles track the plan's = %v, want %v", s.name, tracked, want)
		}
		refreshed, err := plan.Refresh(rules)
		if err != nil {
			t.Fatalf("%s: refresh: %v", s.name, err)
		}
		if !refreshed.Current() {
			t.Fatalf("%s: the refreshed plan is not current", s.name)
		}
		assertHandlesExact(t, s.name, refreshed)
		fresh, err := CompilePlan(l, "u", rules)
		if err != nil {
			t.Fatal(err)
		}
		got, err := refreshed.Rank(PlanRequest{Target: dl.Atom("Doc")})
		if err != nil {
			t.Fatalf("%s: refreshed rank: %v", s.name, err)
		}
		want, err := fresh.Rank(PlanRequest{Target: dl.Atom("Doc")})
		if err != nil {
			t.Fatalf("%s: fresh rank: %v", s.name, err)
		}
		assertBitIdentical(t, s.name, got, want)
		plan = refreshed
	}
}

// TestRefreshRefusesOtherRules: Refresh maintains a plan under the rule list
// it compiled from and nothing else — a rule added, removed, reordered or
// re-scored is ErrPlanNotRefreshable — while the same rules re-parsed into
// other expression values are still the same rules.
func TestRefreshRefusesOtherRules(t *testing.T) {
	l, rules := correlatedSetup(t)
	plan, err := CompilePlan(l, "u", rules)
	if err != nil {
		t.Fatal(err)
	}
	edited := func(edit func(rs []prefs.Rule) []prefs.Rule) []prefs.Rule {
		return edit(slices.Clone(rules))
	}
	for name, other := range map[string][]prefs.Rule{
		"rule added": edited(func(rs []prefs.Rule) []prefs.Rule {
			return append(rs, prefs.Rule{Name: "r9", Context: dl.Atom("Weekend"), Preference: dl.Atom("F2"), Sigma: 0.5})
		}),
		"rule removed":   edited(func(rs []prefs.Rule) []prefs.Rule { return rs[:len(rs)-1] }),
		"rules swapped":  edited(func(rs []prefs.Rule) []prefs.Rule { rs[0], rs[1] = rs[1], rs[0]; return rs }),
		"sigma edited":   edited(func(rs []prefs.Rule) []prefs.Rule { rs[2].Sigma = 0.66; return rs }),
		"context edited": edited(func(rs []prefs.Rule) []prefs.Rule { rs[1].Context = dl.Atom("Weekend"); return rs }),
		"preference edited": edited(func(rs []prefs.Rule) []prefs.Rule {
			rs[0].Preference = dl.And(dl.Atom("F1"), dl.Atom("F3"))
			return rs
		}),
		"rule renamed": edited(func(rs []prefs.Rule) []prefs.Rule { rs[3].Name = "r4b"; return rs }),
	} {
		if _, err := plan.Refresh(other); !errors.Is(err, ErrPlanNotRefreshable) {
			t.Errorf("%s: refresh err = %v, want ErrPlanNotRefreshable", name, err)
		}
	}
	reparsed := edited(func(rs []prefs.Rule) []prefs.Rule {
		for i := range rs {
			rs[i].Context = dl.MustParse(rs[i].Context.String())
			rs[i].Preference = dl.MustParse(rs[i].Preference.String())
		}
		return rs
	})
	if _, err := plan.Refresh(reparsed); err != nil {
		t.Fatalf("refresh under the same rules re-parsed: %v", err)
	}
}

// TestRefreshRestrictedPlanNotRefreshable: a candidate-restricted compile
// (the per-request path) must refuse incremental maintenance.
func TestRefreshRestrictedPlanNotRefreshable(t *testing.T) {
	l, rules := correlatedSetup(t)
	plan, err := compilePlan(l, "u", rules, map[string]bool{"d1": true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Refresh(rules); !errors.Is(err, ErrPlanNotRefreshable) {
		t.Fatalf("refresh of restricted plan: err = %v, want ErrPlanNotRefreshable", err)
	}
}

// TestRefreshChurnSoakEquivalence is the randomized churn soak: a catalog
// with correlated document events, preferences that reference context
// concepts, roles and the closed domain (¬/nominal), a context stream that
// re-shapes the exclusive-group structure, prunes and unprunes rules and
// registers fresh individuals mid-stream, another user's owner-scoped applies
// into a concept a preference reads, and a data stream beside it — new
// documents, certain and uncertain feature and role asserts, retracts, SQL
// inserts and deletes — sometimes in bursts that other readers look up write
// by write, so the plan's handles fall off the newest ones' history. After
// every round the delta-maintained plan's scores must be bit-identical to a
// fresh CompilePlan of the same state and its handles to their views: one
// plan is refreshed through the whole history and never recompiled.
func TestRefreshChurnSoakEquivalence(t *testing.T) {
	db := engine.New()
	l := mapping.NewLoader(db, nil)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []string{"Doc", "F1", "F2", "F3", "F4", "Genre", "Room1", "Room2", "Room3", "Weekend", "Busy"} {
		must(l.DeclareConcept(c))
	}
	must(l.DeclareRole("hasGenre"))
	genres := []string{"g0", "g1", "g2"}
	for _, g := range genres {
		must(l.AssertConcept("Genre", g, nil))
	}
	rng := rand.New(rand.NewSource(11))
	docCount := 0
	addDoc := func() {
		id := fmt.Sprintf("doc%03d", docCount)
		docCount++
		must(l.AssertConcept("Doc", id, nil))
		// Half the docs share a correlated event with a neighbour, the rest
		// carry independent uncertainty or certain features.
		for fi, f := range []string{"F1", "F2", "F3", "F4"} {
			switch rng.Intn(4) {
			case 0:
				must(l.AssertConcept(f, id, nil))
			case 1:
				ev := fmt.Sprintf("e_%s_%d", id, fi)
				must(db.Space().Declare(ev, 0.2+0.6*rng.Float64()))
				must(l.AssertConcept(f, id, event.Basic(ev)))
			case 2:
				if docCount > 1 {
					ev := fmt.Sprintf("e_doc%03d_%d", rng.Intn(docCount-1), fi)
					if db.Space().Declared(ev) {
						must(l.AssertConcept(f, id, event.Basic(ev)))
					}
				}
			}
		}
	}
	for i := 0; i < 30; i++ {
		addDoc()
	}
	rules := []prefs.Rule{
		{Name: "r1", Context: dl.Atom("Room1"), Preference: dl.Atom("F1"), Sigma: 0.9},
		{Name: "r2", Context: dl.Atom("Room2"), Preference: dl.Atom("F2"), Sigma: 0.7},
		{Name: "r3", Context: dl.Atom("Weekend"), Preference: dl.And(dl.Atom("F1"), dl.Atom("F3")), Sigma: 0.8},
		// Domain-sensitive preference (¬ reads dl_domain).
		{Name: "r4", Context: dl.Atom("Busy"), Preference: dl.And(dl.Atom("F2"), dl.Not(dl.Atom("F4"))), Sigma: 0.35},
		// Preference referencing a context concept: membership changes with
		// the context itself, forcing the re-fetch-and-diff path.
		{Name: "r5", Context: dl.Atom("Room3"), Preference: dl.Or(dl.Atom("F4"), dl.Atom("Room1")), Sigma: 0.6},
		// Role-reading preferences, one through a nominal (reads dl_domain).
		{Name: "r6", Context: dl.Atom("Weekend"), Preference: dl.HasValue("hasGenre", "g0"), Sigma: 0.7},
		{Name: "r7", Context: dl.Atom("Room2"), Preference: dl.And(dl.Atom("Doc"), dl.Exists("hasGenre", dl.Atom("Genre"))), Sigma: 0.55},
	}
	randomDoc := func() string { return fmt.Sprintf("doc%03d", rng.Intn(docCount)) }
	evSeq := 0
	maybe := func() *event.Expr {
		if rng.Intn(2) == 0 {
			return nil // certain
		}
		evSeq++
		ev := fmt.Sprintf("e_late_%d", evSeq)
		must(db.Space().Declare(ev, 0.1+0.8*rng.Float64()))
		return event.Basic(ev)
	}
	mutateData := func() {
		switch rng.Intn(7) {
		case 0:
			addDoc()
		case 1:
			must(l.AssertConcept([]string{"F1", "F2", "F3", "F4"}[rng.Intn(4)], randomDoc(), maybe()))
		case 2:
			must(l.RetractConcept([]string{"F1", "F2", "F3", "F4"}[rng.Intn(4)], randomDoc()))
		case 3:
			must(l.AssertRole("hasGenre", randomDoc(), genres[rng.Intn(len(genres))], maybe()))
		case 4:
			// A first-seen individual in a table only r7's filler reads.
			g := fmt.Sprintf("g%d", len(genres))
			genres = append(genres, g)
			must(l.AssertConcept("Genre", g, maybe()))
		case 5:
			// SQL writes: nothing the loader logs, so the next look-up queries.
			stmt := fmt.Sprintf("DELETE FROM c_F%d WHERE id = '%s'", 1+rng.Intn(4), randomDoc())
			if rng.Intn(2) == 0 {
				stmt = fmt.Sprintf("INSERT INTO c_F%d (id, ev) VALUES ('%s', EV_TRUE())", 1+rng.Intn(4), randomDoc())
			}
			_, err := db.Exec(stmt)
			must(err)
		case 6:
			// Another user's owner-scoped apply into Room1, which r5's
			// preference reads: logged writes to a context concept.
			ctx := situation.New(fmt.Sprintf("guest%02d", rng.Intn(50)))
			if rng.Intn(3) > 0 {
				ctx.Add("Room1", rng.Float64())
			}
			_, err := ctx.ApplyOwned(l)
			must(err)
		}
	}
	applyRandomCtx := func() {
		ctx := situation.New("u")
		if rng.Intn(2) == 0 {
			probs := []float64{0.3 + 0.3*rng.Float64(), 0.2 * rng.Float64(), 0.1 * rng.Float64()}
			ctx.AddExclusive("room", []string{"Room1", "Room2", "Room3"}, probs)
		} else {
			for _, r := range []string{"Room1", "Room2", "Room3"} {
				if rng.Intn(2) == 0 {
					ctx.Add(r, rng.Float64())
				}
			}
		}
		if rng.Intn(3) > 0 {
			ctx.Add("Weekend", rng.Float64())
		}
		if rng.Intn(3) == 0 {
			ctx.Certain("Busy")
		}
		if rng.Intn(8) == 0 {
			// A first-seen individual: grows dl_domain mid-stream, which the
			// domain-sensitive rules must notice.
			ctx.CertainFor(fmt.Sprintf("guest%02d", rng.Intn(50)), "Room1")
		}
		must(ctx.Apply(l))
	}

	applyRandomCtx()
	prev, err := CompilePlan(l, "u", rules)
	if err != nil {
		t.Fatal(err)
	}
	req := PlanRequest{Target: dl.Atom("Doc")}
	if _, err := prev.Rank(req); err != nil {
		t.Fatal(err)
	}
	tracked, untracked := 0, 0
	for round := 0; round < 240; round++ {
		switch rng.Intn(8) {
		case 0:
			// A burst the plan sleeps through while other readers keep every
			// preference looked up: one patch per write, more than a handle
			// remembers.
			for i := 0; i < 24; i++ {
				mutateData()
				for _, r := range rules {
					_, err := l.Members(r.Preference)
					must(err)
				}
			}
		case 1, 2, 3:
			mutateData()
		default:
			applyRandomCtx()
		}
		for i, r := range rules {
			if old := prev.rules[i].members; !old.Current() {
				cur, err := l.Members(r.Preference)
				must(err)
				if _, ok := cur.ChangedSince(old); ok {
					tracked++
				} else {
					untracked++
				}
			}
		}
		refreshed, err := prev.Refresh(rules)
		if err != nil {
			t.Fatalf("round %d: refresh: %v", round, err)
		}
		assertHandlesExact(t, fmt.Sprintf("round %d", round), refreshed)
		fresh, err := CompilePlan(l, "u", rules)
		if err != nil {
			t.Fatal(err)
		}
		got, err := refreshed.Rank(req)
		if err != nil {
			t.Fatalf("round %d: refreshed rank: %v", round, err)
		}
		want, err := fresh.Rank(req)
		if err != nil {
			t.Fatalf("round %d: fresh rank: %v", round, err)
		}
		assertBitIdentical(t, fmt.Sprintf("round %d", round), got, want)
		// Top-k selection must agree too (same total order).
		gotK, err := refreshed.Rank(PlanRequest{Target: dl.Atom("Doc"), TopK: 5})
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, fmt.Sprintf("round %d topk", round), gotK, want[:5])
		prev = refreshed
	}
	// Both ways a refresh learns what moved must have carried their share.
	st := l.MembershipStats()
	if tracked < 50 || untracked < 50 || st.Patched < 200 || st.Queries < 100 {
		t.Fatalf("the history refreshed %d stale rules through ChangedSince and %d by comparison, over %+v: it no longer exercises both", tracked, untracked, st)
	}
}
