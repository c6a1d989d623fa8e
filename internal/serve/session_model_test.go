package serve

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	contextrank "repro"
	"repro/internal/core"
)

// modelSystem is newTestSystem plus two location rules, so an exclusive
// group in a session correlates two rule contexts.
func modelSystem(t testing.TB) *contextrank.System {
	t.Helper()
	sys := newTestSystem(t)
	for i, loc := range []string{"LocK", "LocO"} {
		rule := fmt.Sprintf("RULE loc%d WHEN %s PREFER TvProgram AND EXISTS hasGenre.{g%d} WITH %g", i, loc, i, 0.7-0.4*float64(i))
		if _, err := sys.AddRule(rule); err != nil {
			t.Fatal(err)
		}
	}
	return sys
}

// modelConcepts is the session vocabulary the generated histories draw from.
var modelConcepts = []string{"CtxA", "CtxB", "CtxC", "LocK", "LocO", "LocH"}

// randomSession draws a session: independent measurements over shared
// concepts (certain and uncertain, now and then the same membership twice or
// the individual spelled out) and at most one exclusive group — with two, the
// order Prob enumerates them in follows the group-slot numbering, which is a
// function of the history, and scores would agree to the last bit but one.
func randomSession(rng *rand.Rand, user string) []Measurement {
	prob := func() float64 { return float64(1+rng.Intn(999)) / 1000 }
	var ms []Measurement
	for _, c := range modelConcepts[:3] {
		switch rng.Intn(4) {
		case 0:
			ms = append(ms, Measurement{Concept: c, Prob: 1})
		case 1:
			ms = append(ms, Measurement{Concept: c, Prob: prob()})
		case 2:
			ms = append(ms, Measurement{Concept: c, Prob: prob(), Individual: user},
				Measurement{Concept: c, Prob: prob()})
		}
	}
	if rng.Intn(2) == 0 {
		rest := 1.0
		for _, c := range modelConcepts[3 : 4+rng.Intn(3)] {
			p := math.Floor(rest*rng.Float64()*1000) / 1000
			rest -= p
			ms = append(ms, Measurement{Concept: c, Prob: p, Exclusive: "loc"})
		}
	}
	return ms
}

// conceptRows returns the sorted ids asserted into the concept (nil when it
// is not declared).
func conceptRows(t *testing.T, srv *Server, concept string) []string {
	t.Helper()
	var ids []string
	err := srv.Facade().WithRead(func(sys *contextrank.System) error {
		if !sys.Loader().HasConcept(concept) {
			return nil
		}
		res, err := sys.Query("SELECT id FROM c_" + concept)
		if err != nil {
			return err
		}
		for _, row := range res.Rows {
			ids = append(ids, row[0].S)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(ids)
	return ids
}

func spaceSize(srv *Server) (events, groups int) {
	_ = srv.Facade().WithRead(func(sys *contextrank.System) error {
		events, groups = sys.DB().Space().Len(), sys.DB().Space().Groups()
		return nil
	})
	return events, groups
}

// foldedSub is a subscription stream as a client holds it: the opening
// snapshot with every pushed event folded in.
type foldedSub struct {
	item   RankItem
	stream *SubStream
	scores map[string]float64
}

// settle folds pushed events into the client's scores until they are want,
// bit for bit; every delta must continue from the scores folded so far.
func (f *foldedSub) settle(t *testing.T, want []contextrank.Result, what string) {
	t.Helper()
	same := func() bool {
		if len(f.scores) != len(want) {
			return false
		}
		for _, r := range want {
			if got, ok := f.scores[r.ID]; !ok || got != r.Score {
				return false
			}
		}
		return true
	}
	deadline := time.After(10 * time.Second)
	for !same() {
		select {
		case ev := <-f.stream.Events():
			switch ev.Type {
			case "snapshot", "resync":
				f.scores = subScores(ev.Results)
			case "delta":
				for _, ch := range ev.Changes {
					if prev, ok := f.scores[ch.ID]; ok != (ch.Prev != nil) || (ok && prev != *ch.Prev) {
						t.Fatalf("%s: delta %d moves %s from %v, client holds %v (present %v)", what, ev.Seq, ch.ID, ch.Prev, prev, ok)
					}
					f.scores[ch.ID] = ch.Score
				}
				for _, id := range ev.Removed {
					delete(f.scores, id)
				}
			default:
				t.Fatalf("%s: pushed %+v", what, ev)
			}
		case <-deadline:
			t.Fatalf("%s: folded stream %v never reached the fresh server's rank %v", what, f.scores, want)
		}
	}
}

// TestSessionModelChurn holds the serving layer against its model: after
// every step of a seeded random history of session sets and drops — shared
// concepts, certain and uncertain measurements, exclusive groups, empty
// sessions, a refused write now and then — with a hasGenre assert and a rule
// added or removed in between, the server must be indistinguishable from a
// fresh server fed only the vocabulary writes and the live sessions: same
// event-space size, same rows in every context concept, same applied
// fingerprints, bit-identical uncached ranks (and within 1e-9 of the naive
// reference) — and every rank it *serves*, cached or not, single or batched,
// of the catalog and of targets over session vocabulary (whose members move
// with other users' applies), and every standing subscription's folded
// stream, must be the fresh server's too. Scores are a function of the live
// state, not of the history.
func TestSessionModelChurn(t *testing.T) {
	steps := 250
	if testing.Short() {
		steps = 60
	}
	const users = 40
	const extraRule = "RULE extra WHEN CtxC PREFER TvProgram AND EXISTS hasGenre.{g1} WITH 0.5"
	rng := rand.New(rand.NewSource(20))
	srv := NewServer(modelSystem(t), Options{})
	name := func(i int) string { return fmt.Sprintf("user%02d", i) }

	// The model: vocabulary writes in order, and the live sessions.
	var asserted []RoleAssertion
	ruled := false
	live := make(map[string][]Measurement)
	model := func(step int) *Server {
		fresh := NewServer(modelSystem(t), Options{})
		if _, err := fresh.Assert(nil, asserted); err != nil {
			t.Fatalf("step %d: fresh server refused the asserts: %v", step, err)
		}
		if ruled {
			if _, _, err := fresh.AddRules([]string{extraRule}); err != nil {
				t.Fatalf("step %d: fresh server refused the rule: %v", step, err)
			}
		}
		liveUsers := make([]string, 0, len(live))
		for u := range live {
			liveUsers = append(liveUsers, u)
		}
		sort.Strings(liveUsers)
		for _, u := range liveUsers {
			if _, err := fresh.SetSession(u, live[u]); err != nil {
				t.Fatalf("step %d: fresh server refused %s: %v", step, u, err)
			}
		}
		return fresh
	}

	targets := []string{"TvProgram", "CtxA", "LocK OR LocO"}
	owner := name(0)
	var subs []*foldedSub
	for _, item := range []RankItem{{Target: targets[0]}, {Target: targets[2]}, {Candidates: []string{"tv00", "tv03", "tv06"}}} {
		info, err := srv.Subscribe("", SubscriptionSpec{User: owner, RankItem: item})
		if err != nil {
			t.Fatal(err)
		}
		stream, err := srv.SubscriptionStream(info.ID)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, &foldedSub{item: item, stream: stream, scores: subScores(stream.Snapshot().Results)})
	}

	for step := 0; step < steps; step++ {
		switch {
		case step%10 == 5:
			a := RoleAssertion{Role: "hasGenre", Src: fmt.Sprintf("tv%02d", rng.Intn(10)), Dst: fmt.Sprintf("g%d", rng.Intn(2)), Prob: float64(1+rng.Intn(999)) / 1000}
			if _, err := srv.Assert(nil, []RoleAssertion{a}); err != nil {
				t.Fatalf("step %d: assert %+v: %v", step, a, err)
			}
			asserted = append(asserted, a)
		case step%25 == 12 && !ruled:
			if _, _, err := srv.AddRules([]string{extraRule}); err != nil {
				t.Fatalf("step %d: add rule: %v", step, err)
			}
			ruled = true
		case step%25 == 12:
			if _, err := srv.RemoveRule("extra"); err != nil {
				t.Fatalf("step %d: remove rule: %v", step, err)
			}
			ruled = false
		}
		user := name(rng.Intn(users))
		if rng.Intn(5) == 0 {
			user = owner
		}
		switch op := rng.Intn(20); {
		case op < 13:
			ms := randomSession(rng, user)
			if _, err := srv.SetSession(user, ms); err != nil {
				t.Fatalf("step %d: set %s %+v: %v", step, user, ms, err)
			}
			live[user] = ms
		case op < 14:
			if _, err := srv.SetSession(user, nil); err != nil {
				t.Fatalf("step %d: empty session for %s: %v", step, user, err)
			}
			live[user] = nil
		case op < 18:
			if err := srv.DropSession(user); err != nil {
				t.Fatalf("step %d: drop %s: %v", step, user, err)
			}
			delete(live, user)
		default:
			// The catalog is not context vocabulary: refused, nothing moves.
			ms := append(randomSession(rng, user), Measurement{Concept: "TvProgram", Prob: 1})
			if _, err := srv.SetSession(user, ms); err == nil {
				t.Fatalf("step %d: session over the catalog concept accepted", step)
			}
		}

		fresh := model(step)
		if got, want := srv.Sessions().Count(), len(live); got != want {
			t.Fatalf("step %d: %d sessions, model %d", step, got, want)
		}
		gotEv, gotGr := spaceSize(srv)
		wantEv, wantGr := spaceSize(fresh)
		if gotEv != wantEv || gotGr != wantGr {
			t.Fatalf("step %d: space holds %d events in %d groups, fresh server %d in %d",
				step, gotEv, gotGr, wantEv, wantGr)
		}
		for _, c := range modelConcepts {
			got, want := conceptRows(t, srv, c), conceptRows(t, fresh, c)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("step %d: concept %s holds %v, fresh server %v", step, c, got, want)
			}
		}
		for i := 0; i < users; i++ {
			if got, want := srv.Sessions().appliedContext(name(i)).fingerprint, fresh.Sessions().appliedContext(name(i)).fingerprint; got != want {
				t.Fatalf("step %d: %s applied fingerprint %q, fresh server %q", step, name(i), got, want)
			}
		}
		for _, u := range []string{user, name(rng.Intn(users)), name(rng.Intn(users))} {
			for _, target := range targets {
				got := freshRank(t, srv.Facade(), u, target)
				want := freshRank(t, fresh.Facade(), u, target)
				if len(got) != len(want) {
					t.Fatalf("step %d: %s ranks %d of %s, fresh server %d", step, u, len(got), target, len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("step %d: %s result %d of %s = %v, fresh server %v (must be bit-identical)", step, u, i, target, got[i], want[i])
					}
				}
				// The served paths (plan cache, rank cache) against the same.
				served, _, err := srv.Rank(u, target, contextrank.RankOptions{})
				if err != nil {
					t.Fatalf("step %d: served rank of %s for %s: %v", step, target, u, err)
				}
				sameResults(t, served, want)
				batch, _, err := srv.RankBatch(u, "", []RankItem{{Target: target}})
				if err != nil || batch[0].Err != nil {
					t.Fatalf("step %d: batched rank of %s for %s: %v %v", step, target, u, err, batch[0].Err)
				}
				sameResults(t, batch[0].Results, want)
			}
		}
		for _, sub := range subs {
			out, _, err := fresh.RankBatch(owner, "", []RankItem{sub.item})
			if err != nil || out[0].Err != nil {
				t.Fatalf("step %d: fresh rank of %+v: %v %v", step, sub.item, err, out[0].Err)
			}
			sub.settle(t, out[0].Results, fmt.Sprintf("step %d: subscription %+v", step, sub.item))
		}
		var naive []contextrank.Result
		if err := srv.Facade().WithRead(func(sys *contextrank.System) (err error) {
			naive, err = sys.RankWith(user, "TvProgram", contextrank.RankOptions{Algorithm: contextrank.AlgorithmNaive})
			return err
		}); err != nil {
			t.Fatalf("step %d: naive rank: %v", step, err)
		}
		byID := make(map[string]float64, len(naive))
		for _, r := range naive {
			byID[r.ID] = r.Score
		}
		for _, r := range freshRank(t, srv.Facade(), user, "TvProgram") {
			if math.Abs(r.Score-byID[r.ID]) > 1e-9 {
				t.Fatalf("step %d: %s scores %s %v, naive reference %v", step, user, r.ID, r.Score, byID[r.ID])
			}
		}
	}
}

// TestPlanIsolationUnderSessionChurn: user A's applies must cost user B
// nothing. With the rank cache off every rank consults the plan cache; after
// any number of A's applies B's next rank is a plan-cache hit, recomputes no
// document distribution and still equals the fresh rank.
func TestPlanIsolationUnderSessionChurn(t *testing.T) {
	srv := NewServer(modelSystem(t), Options{CacheSize: -1})
	churn := func(i int) []Measurement {
		return []Measurement{
			{Concept: "CtxA", Prob: 0.5 + 0.01*float64(i%40)},
			{Concept: "LocK", Prob: 0.6, Exclusive: "loc"},
			{Concept: "LocO", Prob: 0.3, Exclusive: "loc"},
		}
	}
	if _, err := srv.SetSession("ada", churn(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.SetSession("bob", []Measurement{
		{Concept: "CtxA", Prob: 0.8},
		{Concept: "LocK", Prob: 0.2, Exclusive: "loc"},
		{Concept: "LocO", Prob: 0.7, Exclusive: "loc"},
	}); err != nil {
		t.Fatal(err)
	}
	rankBob := func() []contextrank.Result {
		t.Helper()
		res, _, err := srv.Rank("bob", "TvProgram", contextrank.RankOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := rankBob() // compiles bob's plan, fills its distributions
	before, docBefore := srv.Stats().Plans, contextrank.ReadHotPathStats().DocCacheMisses
	for i := 1; i <= 25; i++ {
		if _, err := srv.SetSession("ada", churn(i)); err != nil {
			t.Fatal(err)
		}
		if i%10 == 0 { // a drop and re-join in between
			if err := srv.DropSession("ada"); err != nil {
				t.Fatal(err)
			}
		}
	}
	got := rankBob()
	after, docAfter := srv.Stats().Plans, contextrank.ReadHotPathStats().DocCacheMisses
	if after.Hits != before.Hits+1 || after.Misses != before.Misses || after.Refreshed != before.Refreshed {
		t.Fatalf("bob's rank after ada's applies: plan cache %+v -> %+v, want exactly one more hit", before, after)
	}
	if docAfter != docBefore {
		t.Fatalf("bob's rank recomputed %d document distributions after ada's applies", docAfter-docBefore)
	}
	if after.Size != 1 {
		t.Fatalf("plan cache holds %d entries for the one user who ranks", after.Size)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bob's result %d moved across ada's applies: %v -> %v", i, want[i], got[i])
		}
	}
	sameResults(t, got, freshRank(t, srv.Facade(), "bob", "TvProgram"))
}

// TestPlanGenerationOnChainedRules: a per-candidate-mode plan consults its
// context events at score time, so it answers for one apply only. A re-PUT
// of identical measurements (same fingerprint, new event names) and a
// context that comes back (X → Y → X) must each recompile — reusing the
// earlier plan would fail with "not declared" — and rank like a fresh one.
// The chain gives every rule its own context concept: under one uncertain
// context shared by all 17 rules, every candidate's rules are one correlated
// cluster past the exact-enumeration bound, and the rank says so.
func TestPlanGenerationOnChainedRules(t *testing.T) {
	shared, _ := chainSystem(t, false)
	sharedSrv := NewServer(shared, Options{CacheSize: -1})
	if _, err := sharedSrv.SetSession("chainuser", []Measurement{{Concept: "ChainCtx", Prob: 0.7}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sharedSrv.Rank("chainuser", "Doc", contextrank.RankOptions{}); !errors.Is(err, core.ErrClusterBound) {
		t.Fatalf("17 rules over one uncertain context ranked: err = %v, want ErrClusterBound", err)
	}

	sys, n := chainSystem(t, true)
	srv := NewServer(sys, Options{CacheSize: -1})
	context := func(p float64) []Measurement {
		ms := make([]Measurement, n)
		for i := range ms {
			ms[i] = Measurement{Concept: fmt.Sprintf("ChainCtx%02d", i), Prob: p}
		}
		return ms
	}
	x, y := context(0.7), context(0.4)
	var lastFP string
	for i, ms := range [][]Measurement{x, x, y, x} {
		fp, err := srv.SetSession("chainuser", ms)
		if err != nil {
			t.Fatal(err)
		}
		if i == 1 && fp != lastFP {
			t.Fatalf("identical measurements changed the fingerprint: %q -> %q", lastFP, fp)
		}
		lastFP = fp
		res, _, err := srv.Rank("chainuser", "Doc", contextrank.RankOptions{})
		if err != nil {
			t.Fatalf("rank after apply %d: %v", i, err)
		}
		if len(res) != n {
			t.Fatalf("apply %d: %d results, want %d", i, len(res), n)
		}
		sameResults(t, res, freshRank(t, srv.Facade(), "chainuser", "Doc"))
		if st := srv.Stats().Plans; st.Misses != int64(i+1) || st.Refreshed != int64(i) || st.Hits != 0 || st.Size != 1 {
			t.Fatalf("after apply %d: plan cache %+v, want %d compiles of the one entry (each later one replacing it) and no reuse", i, st, i+1)
		}
	}
	// Without an apply in between the plan is reused.
	if _, _, err := srv.Rank("chainuser", "Doc", contextrank.RankOptions{}); err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats().Plans; st.Hits != 1 {
		t.Fatalf("repeat rank: plan cache %+v, want a hit", st)
	}
}

// TestPreferenceCoupledSessionUpdateBumpsEpoch: a session concept inside a
// rule *preference* is every user's document side. Ada entering the kitchen
// changes how Person ranks for bob, whose fingerprint does not move — the
// write must invalidate globally, as a role-coupled one does.
func TestPreferenceCoupledSessionUpdateBumpsEpoch(t *testing.T) {
	sys := newTestSystem(t)
	if err := sys.DeclareConcept("Person", "InKitchen"); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"ada", "bob"} {
		if err := sys.AssertConcept("Person", p, 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sys.AddRule("RULE pk WHEN CtxA PREFER Person AND InKitchen WITH 0.9"); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(sys, Options{})
	if _, err := srv.SetSession("bob", []Measurement{{Concept: "CtxA", Prob: 0.8}}); err != nil {
		t.Fatal(err)
	}
	score := func(res []contextrank.Result, id string) float64 {
		for _, r := range res {
			if r.ID == id {
				return r.Score
			}
		}
		t.Fatalf("%s not ranked", id)
		return 0
	}
	r1, _, err := srv.Rank("bob", "Person", contextrank.RankOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, m, err := srv.Rank("bob", "Person", contextrank.RankOptions{}); err != nil || !m.Cached {
		t.Fatalf("expected cached hit (err %v)", err)
	}
	before := srv.Facade().Epoch()
	if _, err := srv.SetSession("ada", []Measurement{{Concept: "InKitchen", Prob: 1}}); err != nil {
		t.Fatal(err)
	}
	if srv.Facade().Epoch() == before {
		t.Fatal("preference-coupled session update did not bump the epoch")
	}
	r2, m2, err := srv.Rank("bob", "Person", contextrank.RankOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m2.Cached {
		t.Fatal("bob served a stale ranking after ada's preference-coupled update")
	}
	sameResults(t, r2, freshRank(t, srv.Facade(), "bob", "Person"))
	if score(r1, "ada") == score(r2, "ada") {
		t.Fatal("rule pk did not change ada's score for bob — coupling test is vacuous")
	}
	// Leaving the kitchen couples just the same.
	before = srv.Facade().Epoch()
	if err := srv.DropSession("ada"); err != nil {
		t.Fatal(err)
	}
	if srv.Facade().Epoch() == before {
		t.Fatal("retracting a preference-coupled concept did not bump the epoch")
	}
	r3, _, err := srv.Rank("bob", "Person", contextrank.RankOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, r3, r1)
}

// TestPlanNoticesDomainGrowth: a never-seen user's first apply registers an
// individual, which changes the membership of ¬/⊤/nominal preference views
// without moving the epoch or anyone else's generation. A cached plan from
// before must be compiled again, not reused.
func TestPlanNoticesDomainGrowth(t *testing.T) {
	sys := newTestSystem(t)
	if _, err := sys.AddRule("RULE np WHEN CtxA PREFER NOT TvProgram WITH 0.9"); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(sys, Options{CacheSize: -1})
	if _, err := srv.SetSession("bob", []Measurement{{Concept: "CtxA", Prob: 0.8}}); err != nil {
		t.Fatal(err)
	}
	const target = "NOT TvProgram"
	if _, _, err := srv.Rank("bob", target, contextrank.RankOptions{}); err != nil {
		t.Fatal(err)
	}
	before := srv.Stats().Plans
	if _, err := srv.SetSession("zed", []Measurement{{Concept: "CtxB", Prob: 1}}); err != nil {
		t.Fatal(err)
	}
	got, _, err := srv.Rank("bob", target, contextrank.RankOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := freshRank(t, srv.Facade(), "bob", target)
	sameResults(t, got, want)
	found := false
	for _, r := range want {
		found = found || r.ID == "zed"
	}
	if !found {
		t.Fatal("zed is not a candidate — domain-growth test is vacuous")
	}
	if after := srv.Stats().Plans; after.Misses != before.Misses+1 || after.Refreshed != before.Refreshed+1 {
		t.Fatalf("plan cache %+v -> %+v, want the stale plan replaced by a compile", before, after)
	}
}
