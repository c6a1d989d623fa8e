package serve

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	contextrank "repro"
)

// contextGenSystem is newTestSystem with eight rules whose contexts read
// every kind of table a write can reach: session concepts (CtxA–C, the LocK/
// LocO exclusive pair), a session concept inside a role filler (InKitchen,
// coupled over watchesWith) and a data concept (Subscriber). No context
// reads hasGenre or Unrelated. Ctx_X is declared so a session on Ctx-X fails
// inside the apply (the two names share a table).
func contextGenSystem(t *testing.T) *contextrank.System {
	t.Helper()
	sys := newTestSystem(t)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(sys.DeclareConcept("InKitchen", "Subscriber", "Unrelated", "CtxC", "LocK", "LocO", "Ctx_X"))
	must(sys.DeclareRole("watchesWith"))
	for _, rule := range []string{
		"RULE rc WHEN EXISTS watchesWith.InKitchen PREFER TvProgram AND EXISTS hasGenre.{g0} WITH 0.7",
		"RULE rs WHEN Subscriber PREFER TvProgram AND EXISTS hasGenre.{g1} WITH 0.65",
		"RULE r4 WHEN CtxC PREFER TvProgram AND EXISTS hasGenre.{g2} WITH 0.75",
		"RULE r5 WHEN CtxA AND CtxC PREFER TvProgram WITH 0.55",
		"RULE r6 WHEN LocK PREFER TvProgram AND EXISTS hasGenre.{g1} WITH 0.6",
		"RULE r7 WHEN LocO PREFER TvProgram AND EXISTS hasGenre.{g0} WITH 0.4",
	} {
		_, err := sys.AddRule(rule)
		must(err)
	}
	return sys
}

// settleSubs waits until the subscription evaluator has nothing left to do:
// every subscription evaluated at the state now standing, so no evaluation
// (and no plan compile) is in flight or due.
func settleSubs(t *testing.T, srv *Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		settled := len(srv.subs.poke) == 0
		for _, sub := range srv.subs.snapshot() {
			now, _ := srv.version(sub.spec.User)
			sub.mu.Lock()
			settled = settled && sub.evaluated && sub.stands.current(now)
			sub.mu.Unlock()
		}
		if settled {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("the subscription evaluator did not settle")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestContextGenerationChurn drives Server.Apply through a seeded history of
// every kind of write — asserts outside every rule context (hasGenre, which
// the preferences read, and Unrelated, which nothing reads), a role assert
// inside a coupled context (watchesWith), a data concept a context names
// (Subscriber), Exec, Declare, AddRules and RemoveRule, coupled, uncoupled
// and failing session applies, subscriptions — and after each step ranks
// every user. Every served ranking must equal a fresh CompileRankPlan
// ranking bit for bit, and the rule contexts the served ranks resolved must
// be exactly what the write reached: none after a write no context reads (a
// plan compiled against the epoch alone would resolve all 8 per user), the
// applying user's after an uncoupled apply, every user's after anything
// else.
func TestContextGenerationChurn(t *testing.T) {
	srv := NewServer(contextGenSystem(t), Options{})
	users := []string{"u0", "u1", "u2", "u3"}
	n := int64(len(users))
	rng := rand.New(rand.NewSource(52))
	prob := func() float64 { return float64(1+rng.Intn(999)) / 1000 }
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	// sessions holds each user's applied measurements.
	sessions := map[string][]Measurement{}
	session := func(kitchen bool) []Measurement {
		var ms []Measurement
		for _, c := range []string{"CtxA", "CtxB", "CtxC"} {
			if rng.Intn(3) > 0 {
				ms = append(ms, Measurement{Concept: c, Prob: prob()})
			}
		}
		if rng.Intn(2) == 0 {
			k := prob() / 2
			ms = append(ms, Measurement{Concept: "LocK", Prob: k, Exclusive: "loc"},
				Measurement{Concept: "LocO", Prob: (1 - k) * prob(), Exclusive: "loc"})
		}
		if kitchen {
			ms = append(ms, Measurement{Concept: "InKitchen", Prob: prob()})
		}
		return ms
	}
	hasKitchen := func(ms []Measurement) bool {
		return slices.ContainsFunc(ms, func(m Measurement) bool { return m.Concept == "InKitchen" })
	}
	for _, u := range users {
		sessions[u] = session(false)
		_, err := srv.SetSession(u, sessions[u])
		must(err)
	}
	_, err := srv.Assert([]ConceptAssertion{{Concept: "Subscriber", ID: "u1", Prob: 0.7}},
		[]RoleAssertion{{Role: "watchesWith", Src: "u0", Dst: "u1", Prob: 1}, {Role: "watchesWith", Src: "u2", Dst: "u3", Prob: 0.6}})
	must(err)
	user := func() string { return users[rng.Intn(len(users))] }
	tv := func() string { return fmt.Sprintf("tv%02d", rng.Intn(10)) }

	// Each step writes and says which users' context halves it reaches:
	// "none", "one" (the applying user's) or "all".
	var subs, extraRules, declared int
	type step struct {
		name string
		do   func() (reach string)
	}
	kinds := []step{
		{"hasGenre assert", func() string {
			_, err := srv.Assert(nil, []RoleAssertion{{Role: "hasGenre", Src: tv(), Dst: fmt.Sprintf("g%d", rng.Intn(3)), Prob: prob()}})
			must(err)
			return "none"
		}},
		{"Unrelated assert", func() string {
			id := tv()
			if rng.Intn(2) == 0 {
				id = fmt.Sprintf("stranger%d", rng.Intn(1000)) // grows dl_domain
			}
			_, err := srv.Assert([]ConceptAssertion{{Concept: "Unrelated", ID: id, Prob: prob()}}, nil)
			must(err)
			return "none"
		}},
		{"watchesWith assert", func() string {
			_, err := srv.Assert(nil, []RoleAssertion{{Role: "watchesWith", Src: user(), Dst: user(), Prob: prob()}})
			must(err)
			return "all"
		}},
		{"Subscriber assert", func() string {
			_, err := srv.Assert([]ConceptAssertion{{Concept: "Subscriber", ID: user(), Prob: prob()}}, nil)
			must(err)
			return "all"
		}},
		{"exec", func() string {
			stmt := fmt.Sprintf("DELETE FROM r_hasGenre WHERE src = '%s'", tv())
			if rng.Intn(2) == 0 {
				stmt = fmt.Sprintf("INSERT INTO c_TvProgram (id, ev) VALUES ('tv%02d', EV_TRUE())", 10+rng.Intn(5))
			}
			_, _, err := srv.Exec(stmt)
			must(err)
			return "all"
		}},
		{"declare", func() string {
			declared++
			_, err := srv.Declare([]string{fmt.Sprintf("Extra%d", declared)}, nil, nil)
			must(err)
			return "all"
		}},
		{"rule change", func() string {
			if extraRules > 0 {
				_, err := srv.RemoveRule(fmt.Sprintf("extra%d", extraRules))
				must(err)
				extraRules--
				return "all"
			}
			extraRules++
			_, _, err := srv.AddRules([]string{fmt.Sprintf("RULE extra%d WHEN CtxB PREFER TvProgram AND EXISTS hasGenre.{g2} WITH 0.5", extraRules)})
			must(err)
			return "all"
		}},
		{"coupled apply", func() string {
			u := user()
			sessions[u] = session(true)
			_, err := srv.SetSession(u, sessions[u])
			must(err)
			return "all"
		}},
		{"apply", func() string {
			u := user()
			next := session(false)
			coupled := hasKitchen(sessions[u]) // leaving InKitchen couples too
			sessions[u] = next
			_, err := srv.SetSession(u, next)
			must(err)
			if coupled {
				return "all"
			}
			return "one"
		}},
		{"failed apply", func() string {
			if _, err := srv.SetSession(user(), []Measurement{{Concept: "Ctx-X", Prob: 1}}); err == nil {
				t.Fatal("a session on Ctx-X applied")
			}
			return "all"
		}},
		{"subscription", func() string {
			if subs > 0 && rng.Intn(2) == 0 {
				found, err := srv.Unsubscribe(fmt.Sprintf("sub%d", subs))
				must(err)
				if !found {
					t.Fatalf("sub%d was not registered", subs)
				}
				subs--
				return "none"
			}
			subs++
			_, err := srv.Subscribe(fmt.Sprintf("sub%d", subs), SubscriptionSpec{User: user(), RankItem: RankItem{Target: "TvProgram", TopK: 3}})
			must(err)
			return "none"
		}},
	}
	var history []step
	for range 4 {
		history = append(history, kinds...)
	}
	rng.Shuffle(len(history), func(i, j int) { history[i], history[j] = history[j], history[i] })

	for _, u := range users { // compiles every user's plan
		_, _, err := srv.Rank(u, "TvProgram", contextrank.RankOptions{})
		must(err)
	}
	for si, s := range history {
		label := fmt.Sprintf("step %d (%s)", si, s.name)
		before, plans := contextsResolved.Load(), srv.Stats().Plans
		reach := s.do()
		settleSubs(t, srv)
		served := make([][]contextrank.Result, len(users))
		for i, u := range users {
			served[i], _, err = srv.Rank(u, "TvProgram", contextrank.RankOptions{})
			must(err)
		}
		resolved, after := contextsResolved.Load()-before, srv.Stats().Plans
		rules := int64(len(srv.Facade().Rules()))
		want := map[string]int64{"none": 0, "one": rules, "all": n * rules}[reach]
		if resolved != want {
			t.Fatalf("%s: the served ranks resolved %d rule contexts, want %d (%s of %d users × %d rules)", label, resolved, want, reach, n, rules)
		}
		if s.name == "hasGenre assert" && (after.Misses-plans.Misses != n || after.Refreshed-plans.Refreshed != n) {
			t.Fatalf("%s: plan cache %+v -> %+v, want every user's stale plan recompiled keeping its context", label, plans, after)
		}
		for i, u := range users {
			var fresh []contextrank.Result
			must(srv.Facade().WithRead(func(sys *contextrank.System) error {
				plan, err := sys.CompileRankPlan(u)
				if err != nil {
					return err
				}
				fresh, err = sys.RankWithPlan(plan, "TvProgram", contextrank.RankOptions{})
				return err
			}))
			if !slices.Equal(served[i], fresh) {
				t.Fatalf("%s: %s served %v, a fresh compile ranks %v", label, u, served[i], fresh)
			}
		}
	}
}
