package serve

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	contextrank "repro"
	"repro/internal/workload"
)

// revalServer is a server over workload.LoadBench's small dataset, grown to
// 60 programs over its 5 genres, with its eight rules, every genre and subject tuple
// certain — so no two rules share a block until a test asserts an uncertain
// tuple, and rules 0/5, 1/6 and 2/7, which read the same hasGenre tuples, are
// then joined into one cluster — and person0000 in all eight rule contexts.
func revalServer(t testing.TB, opts Options) *Server {
	t.Helper()
	sys := contextrank.NewSystem()
	spec := workload.SmallSpec()
	spec.Programs, spec.UncertainFeatureProb = 60, 0
	if _, err := workload.LoadBench(sys.Loader(), sys.Rules(), spec, 8); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(sys, opts)
	t.Cleanup(srv.Close)
	var ms []Measurement
	for i := 0; i < 8; i++ {
		ms = append(ms, Measurement{Concept: workload.BenchContextConcept(i), Prob: 0.9 - 0.1*float64(i)})
	}
	if _, err := srv.SetSession(revalUser, ms); err != nil {
		t.Fatal(err)
	}
	return srv
}

const revalUser = "person0000"

// freshRankWith ranks from scratch — a plan compiled for this rank alone —
// under the facade read lock.
func freshRankWith(t testing.TB, srv *Server, user, target string, opts contextrank.RankOptions) []contextrank.Result {
	t.Helper()
	var out []contextrank.Result
	if err := srv.Facade().WithRead(func(sys *contextrank.System) error {
		var err error
		out, err = sys.RankWith(user, target, opts)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// assertGenre asserts hasGenre(prog, genre) with probability p.
func assertGenre(t testing.TB, srv *Server, prog, genre string, p float64) int64 {
	t.Helper()
	epoch, err := srv.Assert(nil, []RoleAssertion{{Role: "hasGenre", Src: prog, Dst: genre, Prob: p}})
	if err != nil {
		t.Fatal(err)
	}
	return epoch
}

// lackedGenre returns a genre among genre01–genre04 (σ above 0.5: holding it
// raises a score) that prog does not hold, the one of highest σ if high, else
// of lowest.
func lackedGenre(t testing.TB, srv *Server, prog string, high bool) string {
	t.Helper()
	for i := range 4 {
		g := 1 + i
		if high {
			g = 4 - i
		}
		genre := fmt.Sprintf("genre%02d", g)
		members := freshRankWith(t, srv, revalUser, "TvProgram AND EXISTS hasGenre.{"+genre+"}", contextrank.RankOptions{})
		if !slices.ContainsFunc(members, func(r contextrank.Result) bool { return r.ID == prog }) {
			return genre
		}
	}
	t.Fatalf("%s holds every genre", prog)
	return ""
}

// genre00Lowest returns the lowest-ranked program of the user's full ranking
// that holds no genre00 tuple.
func genre00Lowest(t testing.TB, srv *Server) string {
	t.Helper()
	full := freshRankWith(t, srv, revalUser, "TvProgram", contextrank.RankOptions{})
	held := freshRankWith(t, srv, revalUser, "TvProgram AND EXISTS hasGenre.{genre00}", contextrank.RankOptions{})
	for i := len(full) - 1; i >= 0; i-- {
		if ranksAt(held, full[i].ID) < 0 {
			return full[i].ID
		}
	}
	t.Fatal("every program holds genre00")
	return ""
}

// moveGenre00 asserts an uncertain genre00 tuple for prog: each one moves its
// membership in rules 0 and 5, whose σ is 0.5, so it stays where it ranks,
// and the first joins the two rules into a cluster. Another user's rank then
// patches every rule's handle: one moving patch per assert.
func moveGenre00(t testing.TB, srv *Server, prog string) {
	t.Helper()
	assertGenre(t, srv, prog, "genre00", 0.5)
	if _, _, err := srv.Rank("person0001", "TvProgram", contextrank.RankOptions{TopK: 10}); err != nil {
		t.Fatal(err)
	}
}

// ranksAt returns id's place in res, or -1.
func ranksAt(res []contextrank.Result, id string) int {
	return slices.IndexFunc(res, func(r contextrank.Result) bool { return r.ID == id })
}

// TestAssertOutsideTopKKeepsRanking: an assert that moves the score of a
// program outside a user's top 10, and leaves it there, is served from the
// rank cache — revalidated: the stale plan is refreshed (the preference
// handles moved), the one moved program is scored, and the ranking is filed
// again at the new epoch — bit-identical to a rank from scratch. A
// subscription standing on that ranking pushes nothing.
func TestAssertOutsideTopKKeepsRanking(t *testing.T) {
	srv := revalServer(t, Options{})
	top10 := contextrank.RankOptions{TopK: 10}
	if _, meta, err := srv.Rank(revalUser, "TvProgram", top10); err != nil || meta.Cached {
		t.Fatalf("first rank: cached=%v err=%v", meta.Cached, err)
	}
	// moveOutside asserts a genre the program ranked at place from the bottom
	// lacks, wants it to move and stay outside the top 10, and returns the
	// assert's epoch.
	moveOutside := func(place int) int64 {
		t.Helper()
		full := freshRankWith(t, srv, revalUser, "TvProgram", contextrank.RankOptions{})
		prog := full[len(full)-place]
		epoch := assertGenre(t, srv, prog.ID, lackedGenre(t, srv, prog.ID, false), 1)
		after := freshRankWith(t, srv, revalUser, "TvProgram", contextrank.RankOptions{})
		if i := ranksAt(after, prog.ID); i < 10 || after[i].Score == prog.Score {
			t.Fatalf("%s moved from %v to place %d (%v): the fixture no longer moves a program outside the top 10", prog.ID, prog.Score, i, after[i].Score)
		}
		return epoch
	}

	before := srv.Stats()
	epoch := moveOutside(1)
	got, meta, err := srv.Rank(revalUser, "TvProgram", top10)
	if err != nil {
		t.Fatal(err)
	}
	after := srv.Stats()
	if !meta.Cached || meta.Epoch != epoch {
		t.Fatalf("rank after the assert: cached=%v epoch=%d, want cached at epoch %d", meta.Cached, meta.Epoch, epoch)
	}
	if want := freshRankWith(t, srv, revalUser, "TvProgram", top10); !slices.Equal(got, want) {
		t.Fatalf("revalidated ranking %v, a fresh rank gives %v", got, want)
	}
	c0, c1, p0, p1 := before.Cache, after.Cache, before.Plans, after.Plans
	if c1.Hits-c0.Hits != 1 || c1.Misses != c0.Misses || c1.Revalidated-c0.Revalidated != 1 || p1.Refreshed-p0.Refreshed != 1 {
		t.Fatalf("rank cache %+v -> %+v, plan cache %+v -> %+v: want hits +1, misses +0, revalidated +1, refreshed +1", c0, c1, p0, p1)
	}

	if _, err := srv.Subscribe("top10", SubscriptionSpec{User: revalUser, RankItem: RankItem{Target: "TvProgram", TopK: 10}}); err != nil {
		t.Fatal(err)
	}
	settleSubs(t, srv)
	subs := srv.Stats().Subs
	moveOutside(2)
	settleSubs(t, srv)
	if now := srv.Stats().Subs; now.Events != subs.Events || now.Evals-subs.Evals < 1 {
		t.Fatalf("subscription %+v -> %+v after an assert outside its top 10: want an evaluation and no event", subs, now)
	}

	// The bound is the membership handles' history: 16 moving patches since
	// the ranking was filed are still named, and it stands (17 are not: see
	// TestAssertIntoTopKReRanks).
	srv = revalServer(t, Options{})
	prog := genre00Lowest(t, srv)
	moveGenre00(t, srv, prog)
	if _, _, err := srv.Rank(revalUser, "TvProgram", top10); err != nil {
		t.Fatal(err)
	}
	for range 16 {
		moveGenre00(t, srv, prog)
	}
	if _, meta, err := srv.Rank(revalUser, "TvProgram", top10); err != nil || !meta.Cached {
		t.Fatalf("rank after 16 moving asserts: cached=%v err=%v, want revalidated", meta.Cached, err)
	}
}

// TestAssertIntoTopKReRanks: every write the revalidation cannot vouch for is
// followed by a full rank (Cached false) bit-identical to a rank from scratch,
// and a subscription on the same user (under another key) pushes the named
// number of deltas: one where the write moved its top 10.
func TestAssertIntoTopKReRanks(t *testing.T) {
	top10 := contextrank.RankOptions{TopK: 10}
	limit10 := RankItem{Target: "TvProgram", Limit: 10}
	// moveOutside moves one program of the server's with moveGenre00.
	var lowest string
	moveOutside := func(t *testing.T, srv *Server) {
		t.Helper()
		if lowest == "" {
			lowest = genre00Lowest(t, srv)
		}
		moveGenre00(t, srv, lowest)
	}
	for _, tc := range []struct {
		name   string
		opts   contextrank.RankOptions
		sub    RankItem
		before func(t *testing.T, srv *Server) // before the ranking is filed
		write  func(t *testing.T, srv *Server)
		deltas int64
	}{
		{name: "lift an outside program into the top 10", opts: top10, sub: limit10, deltas: 1,
			write: func(t *testing.T, srv *Server) {
				full := freshRankWith(t, srv, revalUser, "TvProgram", contextrank.RankOptions{})
				prog := full[10].ID
				assertGenre(t, srv, prog, lackedGenre(t, srv, prog, true), 1)
				if i := ranksAt(freshRankWith(t, srv, revalUser, "TvProgram", top10), prog); i < 0 {
					t.Fatalf("%s was not lifted into the top 10", prog)
				}
			}},
		{name: "move a listed program", opts: top10, sub: limit10, deltas: 1,
			write: func(t *testing.T, srv *Server) {
				prog := freshRankWith(t, srv, revalUser, "TvProgram", top10)[4].ID
				assertGenre(t, srv, prog, lackedGenre(t, srv, prog, true), 1)
			}},
		{name: "drop a listed program out of the top 10", opts: top10, sub: limit10, deltas: 1,
			before: func(t *testing.T, srv *Server) {
				if _, _, err := srv.AddRules([]string{"RULE dislike WHEN BenchCtx0 PREFER TvProgram AND EXISTS hasSubject.{subject0} WITH 0.05"}); err != nil {
					t.Fatal(err)
				}
			},
			write: func(t *testing.T, srv *Server) {
				listed := freshRankWith(t, srv, revalUser, "TvProgram", top10)
				for _, r := range listed {
					members := freshRankWith(t, srv, revalUser, "TvProgram AND EXISTS hasSubject.{subject0}", contextrank.RankOptions{})
					if ranksAt(members, r.ID) < 0 {
						if _, err := srv.Assert(nil, []RoleAssertion{{Role: "hasSubject", Src: r.ID, Dst: "subject0", Prob: 1}}); err != nil {
							t.Fatal(err)
						}
						if ranksAt(freshRankWith(t, srv, revalUser, "TvProgram", top10), r.ID) >= 0 {
							t.Fatalf("%s stayed in the top 10", r.ID)
						}
						return
					}
				}
				t.Fatal("every listed program is disliked already")
			}},
		{name: "assert a program into the target", opts: top10, sub: limit10, deltas: 1,
			before: func(t *testing.T, srv *Server) {
				// tvnew holds every genre before it is a TvProgram: no candidate moves.
				for g := range 5 {
					assertGenre(t, srv, "tvnew", fmt.Sprintf("genre%02d", g), 1)
				}
			},
			write: func(t *testing.T, srv *Server) {
				if _, err := srv.Assert([]ConceptAssertion{{Concept: "TvProgram", ID: "tvnew", Prob: 1}}, nil); err != nil {
					t.Fatal(err)
				}
				if ranksAt(freshRankWith(t, srv, revalUser, "TvProgram", top10), "tvnew") != 0 {
					t.Fatal("tvnew does not lead the top 10")
				}
			}},
		{name: "declare", opts: top10, sub: limit10, deltas: 0,
			write: func(t *testing.T, srv *Server) {
				if _, err := srv.Declare([]string{"Unrelated"}, nil, nil); err != nil {
					t.Fatal(err)
				}
			}},
		{name: "add a rule", opts: top10, sub: limit10, deltas: 1,
			write: func(t *testing.T, srv *Server) {
				if _, _, err := srv.AddRules([]string{"RULE extra WHEN BenchCtx0 PREFER TvProgram AND EXISTS hasGenre.{genre01} WITH 0.95"}); err != nil {
					t.Fatal(err)
				}
			}},
		{name: "exec", opts: top10, sub: limit10, deltas: 0,
			write: func(t *testing.T, srv *Server) {
				full := freshRankWith(t, srv, revalUser, "TvProgram", contextrank.RankOptions{})
				stmt := fmt.Sprintf("INSERT INTO r_hasGenre (src, dst, ev) VALUES ('%s', 'genre00', EV_TRUE())", full[len(full)-1].ID)
				if _, _, err := srv.Exec(stmt); err != nil {
					t.Fatal(err)
				}
			}},
		{name: "join two rules into one cluster", opts: top10, sub: limit10, deltas: 1,
			write: func(t *testing.T, srv *Server) { moveOutside(t, srv) }},
		{name: "top_k 0", opts: contextrank.RankOptions{}, sub: RankItem{Target: "TvProgram", Threshold: 1e-9}, deltas: 1,
			write: func(t *testing.T, srv *Server) {
				full := freshRankWith(t, srv, revalUser, "TvProgram", contextrank.RankOptions{})
				prog := full[len(full)-1].ID
				assertGenre(t, srv, prog, lackedGenre(t, srv, prog, false), 1)
			}},
		{name: "17 moving asserts", opts: top10, sub: limit10, deltas: 0,
			before: func(t *testing.T, srv *Server) { moveOutside(t, srv) },
			write: func(t *testing.T, srv *Server) {
				for range 17 {
					moveOutside(t, srv)
				}
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := revalServer(t, Options{})
			lowest = ""
			if tc.before != nil {
				tc.before(t, srv)
			}
			if _, err := srv.Subscribe("sub", SubscriptionSpec{User: revalUser, RankItem: tc.sub}); err != nil {
				t.Fatal(err)
			}
			// The evaluator's first compile is done before the ranking is filed,
			// so the ranking names the plan the cache holds.
			settleSubs(t, srv)
			for i := range 2 { // filed, then hit
				if _, meta, err := srv.Rank(revalUser, "TvProgram", tc.opts); err != nil || meta.Cached != (i == 1) {
					t.Fatalf("rank %d before the write: cached=%v err=%v", i, meta.Cached, err)
				}
			}
			settleSubs(t, srv)
			subs := srv.Stats().Subs
			tc.write(t, srv)
			got, meta, err := srv.Rank(revalUser, "TvProgram", tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if meta.Cached {
				t.Fatal("the rank after the write was served from the rank cache")
			}
			if want := freshRankWith(t, srv, revalUser, "TvProgram", tc.opts); !slices.Equal(got, want) {
				t.Fatalf("served %v, a fresh rank gives %v", got, want)
			}
			settleSubs(t, srv)
			if n := srv.Stats().Subs.Events - subs.Events; n != tc.deltas {
				t.Fatalf("the subscription pushed %d events, want %d", n, tc.deltas)
			}
		})
	}
}

// TestRevalidationMatchesUncachedServer drives two identical servers, one
// without a rank cache, through a seeded history of certain and uncertain
// hasGenre and hasSubject asserts — on programs a user lists and on others —
// context applies and drops, rule adds and removes, SQL writes and asserts
// that reach rule contexts, and ranks after every step through Rank and
// RankBatch with top_k 0, 3 or 10, a limit and a threshold. Every ranking the
// cached server serves, revalidated or not, must be the uncached server's bit
// for bit. Uncertain genre asserts join the rules that read one tuple into a
// cluster, which a revalidation must see. Four rules reach every way a write
// can reach a context: a data concept asserted per user (Member), one read
// inside a role filler together with a session concept (Vip, BenchCtx7 over
// knows), a session concept in a preference (BenchCtx3, scored over the
// Person target) and a ¬ context, which reads dl_domain. A concurrent step
// releases several ranks together right after a write and holds each against
// the uncached server once all are back.
func TestRevalidationMatchesUncachedServer(t *testing.T) {
	cached, plain := revalServer(t, Options{}), revalServer(t, Options{CacheSize: -1})
	both := func(fn func(srv *Server) error) {
		t.Helper()
		errA, errB := fn(cached), fn(plain)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("the servers disagree on a write: %v / %v", errA, errB)
		}
	}
	// rng draws the genre history and ctx the second phase's writes that
	// reach a rule's context, each from its own sequence.
	rng, ctx := rand.New(rand.NewSource(59)), rand.New(rand.NewSource(65))
	users := []string{revalUser, "person0001", "person0002"}
	targets := []string{"TvProgram", "TvProgram AND EXISTS hasSubject.{subject0}"}
	user := func(r *rand.Rand) string { return users[r.Intn(len(users))] }
	options := func(r *rand.Rand) contextrank.RankOptions {
		o := contextrank.RankOptions{TopK: []int{0, 3, 10}[r.Intn(3)]}
		if r.Intn(3) == 0 {
			o.Limit = 5
		}
		if r.Intn(3) == 0 {
			o.Threshold = 0.02
		}
		return o
	}
	prob := func(r *rand.Rand) float64 {
		if r.Intn(2) == 0 {
			return 1
		}
		return float64(1+r.Intn(99)) / 100
	}
	// listed is each user's last served TvProgram ranking, for asserts on
	// programs a user lists.
	listed := map[string][]contextrank.Result{}
	program := func() string {
		if l := listed[user(rng)]; len(l) > 0 && rng.Intn(2) == 0 {
			return l[rng.Intn(len(l))].ID
		}
		return fmt.Sprintf("tv%03d", rng.Intn(15))
	}
	// cooking is set once the cook rule, whose preference reads the session
	// concept Cooking, is registered; from then on a context may hold it.
	cooking := false
	// apply puts a context for u drawn from r, and Cooking from ctx.
	apply := func(r *rand.Rand, u string) {
		var ms []Measurement
		for i := 0; i < 8; i++ {
			if r.Intn(2) == 0 {
				ms = append(ms, Measurement{Concept: workload.BenchContextConcept(i), Prob: float64(1+r.Intn(99)) / 100})
			}
		}
		if cooking && ctx.Intn(3) == 0 {
			ms = append(ms, Measurement{Concept: "Cooking", Prob: prob(ctx)})
		}
		both(func(srv *Server) error { _, err := srv.SetSession(u, ms); return err })
	}
	extra := 0
	rankBoth := func(step int, user, target string, opts contextrank.RankOptions) {
		t.Helper()
		got, _, errA := cached.Rank(user, target, opts)
		want, _, errB := plain.Rank(user, target, opts)
		if (errA == nil) != (errB == nil) || !slices.Equal(got, want) {
			t.Fatalf("step %d: %s ranks %q %+v: served %v (%v), uncached %v (%v)", step, user, target, opts, got, errA, want, errB)
		}
		if target == "TvProgram" {
			listed[user] = got
		}
	}
	// step is one step of the genre history, ranked after: each user's top
	// 10, so a write is revalidated against the plan just before it, and one
	// more request.
	step := func(step int) {
		switch k := rng.Intn(20); {
		case k < 8:
			role, dst := "hasGenre", fmt.Sprintf("genre%02d", rng.Intn(5))
			if rng.Intn(4) == 0 {
				role, dst = "hasSubject", fmt.Sprintf("subject%d", rng.Intn(3))
			}
			ra := []RoleAssertion{{Role: role, Src: program(), Dst: dst, Prob: prob(rng)}}
			both(func(srv *Server) error { _, err := srv.Assert(nil, ra); return err })
		case k < 10:
			apply(rng, user(rng))
		case k == 10:
			if extra > 0 && rng.Intn(2) == 0 {
				name := fmt.Sprintf("extra%d", extra)
				both(func(srv *Server) error { _, err := srv.RemoveRule(name); return err })
				extra--
				break
			}
			extra++
			// σ below 0.5 is a dislike: an assert can then lower a score.
			rule := fmt.Sprintf("RULE extra%d WHEN BenchCtx%d PREFER TvProgram AND EXISTS hasGenre.{genre%02d} WITH %g", extra, rng.Intn(8), rng.Intn(5), 0.15+0.2*float64(rng.Intn(4)))
			both(func(srv *Server) error { _, _, err := srv.AddRules([]string{rule}); return err })
		case k == 11:
			stmt := fmt.Sprintf("DELETE FROM r_hasGenre WHERE src = '%s'", program())
			if rng.Intn(2) == 0 {
				stmt = fmt.Sprintf("INSERT INTO r_hasGenre (src, dst, ev) VALUES ('%s', 'genre%02d', EV_TRUE())", program(), rng.Intn(5))
			}
			both(func(srv *Server) error { _, _, err := srv.Exec(stmt); return err })
		case k < 16:
			// Ranks and batches only: the writes' epochs stay put.
		default:
			u := user(rng)
			items := make([]RankItem, 1+rng.Intn(3))
			for i := range items {
				o := options(rng)
				items[i] = RankItem{Target: targets[rng.Intn(len(targets))], TopK: o.TopK, Limit: o.Limit, Threshold: o.Threshold}
			}
			got, _, errA := cached.RankBatch(u, "", items)
			want, _, errB := plain.RankBatch(u, "", items)
			if errA != nil || errB != nil {
				t.Fatalf("step %d: batch: %v / %v", step, errA, errB)
			}
			for i := range items {
				if !slices.Equal(got[i].Results, want[i].Results) {
					t.Fatalf("step %d: batch item %+v: served %v, uncached %v", step, items[i], got[i].Results, want[i].Results)
				}
			}
		}
		for _, u := range users {
			rankBoth(step, u, "TvProgram", contextrank.RankOptions{TopK: 10})
			rankBoth(step, u, targets[rng.Intn(len(targets))], options(rng))
		}
	}
	for i := range 2000 {
		step(i)
	}
	st := cached.Stats().Cache
	if st.Revalidated < 1500 {
		t.Fatalf("only %d of %d hits were revalidations: the history no longer exercises them", st.Revalidated, st.Hits)
	}
	t.Logf("rank cache: %v, %d revalidated", st, st.Revalidated)

	// The second phase starts over on two new servers, adds a rule for every
	// way a write reaches a context and interleaves such writes, drops and
	// concurrent ranks with the genre history. The context rules prefer
	// programs by nominal, certain, so they join no genre cluster; the ¬
	// context reads dl_domain.
	cached, plain = revalServer(t, Options{}), revalServer(t, Options{CacheSize: -1})
	clear(listed)
	extra = 0
	both(func(srv *Server) error {
		if _, err := srv.Declare([]string{"Member", "Vip", "Cooking"}, []string{"knows"}, nil); err != nil {
			return err
		}
		if _, _, err := srv.AddRules([]string{
			"RULE member WHEN Member PREFER TvProgram AND {tv001, tv004, tv007} WITH 0.65",
			"RULE vip WHEN EXISTS knows.(Vip OR BenchCtx7) PREFER TvProgram AND {tv002, tv004, tv008} WITH 0.3",
			"RULE cook WHEN BenchCtx2 PREFER Person AND Cooking WITH 0.8",
			"RULE away WHEN NOT Member PREFER TvProgram AND {tv000, tv003} WITH 0.4",
		}); err != nil {
			return err
		}
		_, err := srv.Assert(nil, []RoleAssertion{
			{Role: "knows", Src: users[0], Dst: users[1], Prob: 1},
			{Role: "knows", Src: users[1], Dst: users[2], Prob: 1},
		})
		return err
	})
	cooking = true
	// asserted holds the context assertions made and not yet taken back by
	// an SQL delete, which comes before the next assert of the same tuple:
	// no membership gathers the basic events of repeated uncertain asserts.
	asserted := map[string]bool{"knows " + users[0] + " " + users[1]: true, "knows " + users[1] + " " + users[2]: true}
	// write is a write that reaches a rule's context: a context apply, or an
	// assert of a concept or role a context reads — outside every role
	// filler (Member, knows) or inside one (Vip) — or the delete taking it
	// back.
	write := func() {
		u := user(ctx)
		if ctx.Intn(3) == 0 {
			apply(ctx, u)
			return
		}
		var (
			ca        []ConceptAssertion
			ra        []RoleAssertion
			stmt, key string
		)
		if c := []string{"Member", "Vip", "knows"}[ctx.Intn(3)]; c != "knows" {
			ca = []ConceptAssertion{{Concept: c, ID: u, Prob: prob(ctx)}}
			stmt, key = fmt.Sprintf("DELETE FROM c_%s WHERE id = '%s'", c, u), c+" "+u
		} else {
			v := user(ctx)
			ra = []RoleAssertion{{Role: c, Src: u, Dst: v, Prob: prob(ctx)}}
			stmt, key = fmt.Sprintf("DELETE FROM r_knows WHERE src = '%s' AND dst = '%s'", u, v), c+" "+u+" "+v
		}
		if asserted[key] {
			both(func(srv *Server) error { _, _, err := srv.Exec(stmt); return err })
		} else {
			both(func(srv *Server) error { _, err := srv.Assert(ca, ra); return err })
		}
		asserted[key] = !asserted[key]
	}
	for i := 2000; i < 2600; i++ {
		switch ctx.Intn(6) {
		case 0, 1:
			write()
		case 2:
			u := user(ctx)
			both(func(srv *Server) error { return srv.DropSession(u) })
		case 3:
			// Ranks released together right after a write, each held against
			// the uncached server once all are back.
			write()
			tasks := make([]struct {
				user, target string
				opts         contextrank.RankOptions
				got          []contextrank.Result
				err          error
			}, 4)
			start := make(chan struct{})
			var wg sync.WaitGroup
			for i := range tasks {
				task := &tasks[i]
				task.user, task.target, task.opts = user(ctx), append(targets, "Person")[ctx.Intn(len(targets)+1)], options(ctx)
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					task.got, _, task.err = cached.Rank(task.user, task.target, task.opts)
				}()
			}
			close(start)
			wg.Wait()
			for _, task := range tasks {
				want, _, err := plain.Rank(task.user, task.target, task.opts)
				if (task.err == nil) != (err == nil) || !slices.Equal(task.got, want) {
					t.Fatalf("step %d: concurrent rank of %q for %s %+v: served %v (%v), uncached %v (%v)",
						i, task.target, task.user, task.opts, task.got, task.err, want, err)
				}
			}
		}
		step(i)
		// One user's Person ranking, which the cook rule scores.
		rankBoth(i, user(ctx), "Person", options(ctx))
	}
}

// TestConcurrentCompilesKeepRankingsRevalidatable: n ranks of one user that
// all find its plan stale at once compile concurrently, and every ranking
// they file names the plan the cache keeps — so after the next assert
// outside their top k all n are revalidated, not only the last compile's: a
// compile filed over a concurrent one would leave the rankings scored with
// the other naming a plan nobody holds, and they would rank again. Each round
// releases the n ranks together from behind the facade write lock; its
// asserts give genres to programs outside the target, which moves every
// rule's preference table and no candidate.
func TestConcurrentCompilesKeepRankingsRevalidatable(t *testing.T) {
	// One rank first: the n compiles then patch the rule preferences' memoized
	// handles instead of each evaluating its own.
	concurrentCompilesRevalidate(t, true)
}

// TestConcurrentFirstCompilesKeepRankingsRevalidatable is the same rounds
// without the warm-up rank: the first round's compiles are the first
// look-ups of the rule preferences, which may each evaluate them, and every
// one must still come back with the handle the membership memo keeps — a
// plan over a handle the memo lost cannot say what the next assert moved.
func TestConcurrentFirstCompilesKeepRankingsRevalidatable(t *testing.T) {
	concurrentCompilesRevalidate(t, false)
}

func concurrentCompilesRevalidate(t *testing.T, warm bool) {
	const n = 8
	srv := revalServer(t, Options{})
	if warm {
		if _, _, err := srv.Rank(revalUser, "TvProgram", contextrank.RankOptions{TopK: 3}); err != nil {
			t.Fatal(err)
		}
	}
	writes := 0
	write := func() {
		writes++
		assertGenre(t, srv, fmt.Sprintf("notaprogram%02d", writes), "genre01", 1)
	}
	for round := range 10 {
		write()
		started := srv.requests.Load()
		srv.facade.mu.Lock()
		var wg sync.WaitGroup
		for i := range n {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, _, err := srv.Rank(revalUser, "TvProgram", contextrank.RankOptions{TopK: 3 + i}); err != nil {
					t.Error(err)
				}
			}()
		}
		for srv.requests.Load() < started+n {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(5 * time.Millisecond) // every rank parks on the read lock
		srv.facade.mu.Unlock()
		wg.Wait()

		write()
		before := srv.Stats().Cache
		for i := range n {
			if _, _, err := srv.Rank(revalUser, "TvProgram", contextrank.RankOptions{TopK: 3 + i}); err != nil {
				t.Fatal(err)
			}
		}
		if after := srv.Stats().Cache; after.Revalidated-before.Revalidated != n {
			t.Fatalf("round %d: %d of %d rankings revalidated after the assert (rank cache %+v -> %+v)",
				round, after.Revalidated-before.Revalidated, n, before, after)
		}
	}
}
