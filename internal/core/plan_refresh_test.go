package core

import (
	"bytes"
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

// freshLoader restores a dump of the loader's database into a new engine under
// a new loader: the same state with none of the first loader's memo, document
// sides or event-space memo.
func freshLoader(t *testing.T, l *mapping.Loader) *mapping.Loader {
	t.Helper()
	var dump bytes.Buffer
	if err := l.DB().Dump(&dump); err != nil {
		t.Fatal(err)
	}
	db := engine.New()
	if err := db.Restore(&dump); err != nil {
		t.Fatal(err)
	}
	return mapping.NewLoader(db, l.TBox())
}

// assertRankExact holds a plan's rank of the target against the loader's
// present state by routes that share nothing with the plan's document side:
// a compile restricted to every individual there is — which restricts nothing,
// but walks the footprints itself, key by key through the union-find, and
// takes every probability straight from Space.Prob — must produce the same
// clusters in the same order and bit-identical scores; with fresh set, so must
// a compile on a fresh loader over a restored dump; and with naive set the
// §3.3 reference agrees within 1e-9. It returns the plan's ranking.
func assertRankExact(t *testing.T, label string, p *Plan, rules []prefs.Rule, target *dl.Expr, fresh *mapping.Loader, naive bool) []Result {
	t.Helper()
	req := PlanRequest{Target: target}
	got, err := p.Rank(req)
	if err != nil {
		t.Fatalf("%s: %s's rank: %v", label, p.user, err)
	}
	everyone := map[string]bool{}
	exprs := []*dl.Expr{target}
	for _, r := range rules {
		exprs = append(exprs, r.Preference)
	}
	for _, e := range exprs {
		m, err := p.loader.Members(e)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range m.IDs {
			everyone[id] = true
		}
	}
	walked, err := compilePlan(p.loader, p.user, rules, everyone, nil)
	if err != nil {
		t.Fatalf("%s: %s's walked compile: %v", label, p.user, err)
	}
	if walked.docs != nil || p.docs == nil {
		t.Fatalf("%s: the walked plan has a document side (%v) or the plan under test has none (%v)", label, walked.docs != nil, p.docs == nil)
	}
	if len(walked.clusters) != len(p.clusters) {
		t.Fatalf("%s: %s: %d clusters, the walked union-find finds %d", label, p.user, len(p.clusters), len(walked.clusters))
	}
	for i := range walked.clusters {
		if !slices.Equal(walked.clusters[i].rules, p.clusters[i].rules) {
			t.Fatalf("%s: %s: cluster %d holds rules %v, the walked union-find puts %v there", label, p.user, i, p.clusters[i].rules, walked.clusters[i].rules)
		}
	}
	want, err := walked.Rank(req)
	if err != nil {
		t.Fatalf("%s: %s's walked rank: %v", label, p.user, err)
	}
	assertBitIdentical(t, label+": "+p.user+" vs the walked compile", got, want)
	if fresh != nil {
		fp, err := CompilePlan(fresh, p.user, rules)
		if err != nil {
			t.Fatal(err)
		}
		if want, err = fp.Rank(req); err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, label+": "+p.user+" vs a fresh loader", got, want)
	}
	if naive {
		want, err := NewNaiveRanker(p.loader).Rank(Request{User: p.user, Rules: rules, PlanRequest: req})
		if err != nil {
			t.Fatal(err)
		}
		assertSameScores(t, label+": "+p.user+" vs naive", got, want, 1e-9)
	}
	return got
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
// Refresh, beside two other users' plans whose own contexts rotate through
// other active rule sets at every step. All three read one document side, and
// after every step each plan's ranking must be bit-identical to the routes
// that do not (assertRankExact: the walked compile, a fresh loader, the naive
// reference), every handle identical to a query of its view — and the side
// must have derived exactly what the step calls for: nothing across a context
// change, the individuals a logged write reached, everything when the write
// cannot be traced.
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
	// The other users' contexts at step i: between them they leave r1 ∧ r2
	// (one exclusive group), r1 alone, r2 ∧ r3 ∧ r5 (independent), r3 ∧ r5 and
	// nothing at all active — against u's own shapes in the steps below.
	rotate := func(i int) {
		v := situation.New("v")
		switch i % 3 {
		case 0:
			v.AddExclusive("location", []string{"Kitchen", "Living"}, []float64{0.3, 0.6})
		case 1:
			v.Add("Kitchen", 0.25+0.05*float64(i%7))
		}
		w := situation.New("w")
		if i%4 != 3 {
			w.Add("Weekend", 0.9-0.1*float64(i%5))
		}
		if i%2 == 0 {
			w.Add("Living", 0.45)
		}
		for _, ctx := range []*situation.Context{v, w} {
			_, err := ctx.ApplyOwned(l)
			must(err)
		}
	}
	rotate(0) // registers v and w in dl_domain, which r6's ¬ reads
	users := []string{"u", "v", "w"}
	plans := make([]*Plan, len(users))
	for i, u := range users {
		var err error
		if plans[i], err = CompilePlan(l, u, rules); err != nil {
			t.Fatal(err)
		}
		if plans[i].docs != plans[0].docs {
			t.Fatalf("%s's plan compiled a document side of its own", u)
		}
	}
	apply := func(ctx *situation.Context) func() {
		return func() {
			_, err := ctx.ApplyOwned(l)
			must(err)
		}
	}
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
	rows := func() int64 { return ReadHotPathStats().DocCacheMisses }
	// The rule tuples whose joint table the document side has filled — itself,
	// or a side it was carried from.
	filled := map[string]bool{}
	for si, s := range steps {
		s.do()
		plan := plans[0]
		// A context apply and a write to Other leave every preference's
		// tables alone; every other step writes one.
		if want := strings.HasPrefix(s.name, "context") || s.name == "write no rule reads"; plan.Current() != want {
			t.Fatalf("%s: plan.Current() = %v, want %v", s.name, plan.Current(), want)
		}
		// Whether the new handles can name what moved since the plans': not
		// across a view query (SQL wrote) or a history that outran them.
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
		if !tracked {
			clear(filled)
		}
		carried, first := len(filled), 0
		rotate(si + 1)
		before := rows()
		for i, p := range plans {
			refreshed, err := p.Refresh(rules)
			if err != nil {
				t.Fatalf("%s: %s's refresh: %v", s.name, users[i], err)
			}
			if !refreshed.Current() {
				t.Fatalf("%s: %s's refreshed plan is not current", s.name, users[i])
			}
			if refreshed.docs != p.docs != !plan.Current() {
				t.Fatalf("%s: %s's refresh changed document sides = %v with the handles current = %v", s.name, users[i], refreshed.docs != p.docs, plan.Current())
			}
			if _, err := refreshed.Rank(PlanRequest{Target: dl.Atom("Doc")}); err != nil {
				t.Fatalf("%s: %s's rank: %v", s.name, users[i], err)
			}
			for _, ci := range refreshed.multi {
				if tuple := fmt.Sprint(refreshed.clusters[ci].rules); !filled[tuple] {
					filled[tuple] = true
					first++
				}
			}
			plans[i] = refreshed
		}
		if plans[1].docs != plans[0].docs || plans[2].docs != plans[0].docs {
			t.Fatalf("%s: the three plans no longer read one document side", s.name)
		}
		// What the three refreshes and ranks derived, between them. Marginal
		// rows: none while the handles stand; the one or two individuals a
		// traced write reached (d3 and d4 in the busiest step), once; the whole
		// side — every document, and whoever else ¬F3 holds of — when the delta
		// is untraced. Joint rows: those of the same individuals in every table
		// carried, and a whole table (at most the 5 documents' rows) the first
		// time a context puts a tuple of rules into one cluster.
		derived := rows() - before
		switch atMost := int64(first * 5); {
		case plan.Current() && derived > atMost, plan.Current() && first == 0 && derived != 0:
			t.Fatalf("%s: a step that wrote no preference's table derived %d document rows (%d tuples clustered for the first time)", s.name, derived, first)
		case tracked && derived > atMost+int64(2*(1+carried)):
			t.Fatalf("%s: a traced write derived %d document rows (%d joint tables carried, %d new)", s.name, derived, carried, first)
		case !tracked && derived < 6:
			t.Fatalf("%s: an untraced write derived %d document rows, not the side", s.name, derived)
		}
		fresh := freshLoader(t, l)
		for _, p := range plans {
			assertHandlesExact(t, s.name, p)
			assertRankExact(t, s.name, p, rules, dl.Atom("Doc"), fresh, true)
		}
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
	plan, err := compilePlan(l, "u", rules, map[string]bool{"d1": true}, nil)
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
	// randomCtx applies a random context for the user — owner-scoped, or when
	// whole is set the whole-loader apply that retracts every other user's.
	randomCtx := func(user string, whole bool) {
		ctx := situation.New(user)
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
		if whole {
			must(ctx.Apply(l))
			return
		}
		_, err := ctx.ApplyOwned(l)
		must(err)
	}

	// Four users hold a plan each, all over one document side; u's context
	// moves with the history below, the others' in turn, one a round.
	users := []string{"u", "v0", "v1", "v2"}
	plans := make([]*Plan, len(users))
	for i, u := range users {
		randomCtx(u, false)
		var err error
		if plans[i], err = CompilePlan(l, u, rules); err != nil {
			t.Fatal(err)
		}
	}
	tracked, untracked := 0, 0
	// Rounds in which a plan clustered several rules, and in which it put r1
	// and r5 into one cluster over the user's Room1 event alone — r1's context
	// event, and through r5's preference (F4 ⊔ Room1) in r5's document
	// footprint — with no document block between the two.
	coupled, ctxLinked := 0, 0
	for round := 0; round < 240; round++ {
		switch rng.Intn(8) {
		case 0:
			// A burst the plans sleep through while other readers keep every
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
			randomCtx("u", rng.Intn(4) == 0)
		}
		randomCtx(users[1+round%3], false)
		for i, r := range rules {
			if old := plans[0].rules[i].members; !old.Current() {
				cur, err := l.Members(r.Preference)
				must(err)
				if _, ok := cur.ChangedSince(old); ok {
					tracked++
				} else {
					untracked++
				}
			}
		}
		label := fmt.Sprintf("round %d", round)
		var fresh *mapping.Loader
		if round%8 == 0 {
			fresh = freshLoader(t, l)
		}
		for i, p := range plans {
			refreshed, err := p.Refresh(rules)
			if err != nil {
				t.Fatalf("%s: %s's refresh: %v", label, users[i], err)
			}
			if refreshed.docs != plans[0].docs && i > 0 {
				t.Fatalf("%s: %s's plan reads a document side of its own", label, users[i])
			}
			plans[i] = refreshed
			if i == 0 {
				assertHandlesExact(t, label, refreshed)
			}
			// The naive reference is Θ(4^k): one user a round, every fourth.
			want := assertRankExact(t, label, refreshed, rules, dl.Atom("Doc"), fresh, round%4 == 0 && i == round/4%len(users))
			// Top-k selection must agree too (same total order).
			gotK, err := refreshed.Rank(PlanRequest{Target: dl.Atom("Doc"), TopK: 5})
			if err != nil {
				t.Fatal(err)
			}
			assertBitIdentical(t, label+" topk", gotK, want[:5])
			if len(refreshed.multi) > 0 {
				coupled++
			}
			for _, ci := range refreshed.multi {
				if rs := refreshed.clusters[ci].rules; len(rs) == 2 && rs[0] == 0 && rs[1] == 4 && !refreshed.docs.Probs().Shares(0, 4) {
					ctxLinked++
				}
			}
		}
	}
	// Both ways a document side learns what moved must have carried their
	// share, and both ways two rules come to share a cluster.
	st := l.MembershipStats()
	if tracked < 50 || untracked < 50 || st.Patched < 200 || st.Queries < 100 || coupled < 100 || ctxLinked < 10 {
		t.Fatalf("the history refreshed %d stale rules with a traced delta and %d without, over %+v, and clustered rules in %d plans, %d times over a context event in a document footprint: it no longer exercises all of them", tracked, untracked, st, coupled, ctxLinked)
	}
}
