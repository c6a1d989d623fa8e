package serve

import (
	"fmt"
	"testing"

	contextrank "repro"
)

// TestSurvivingPlanResolvesFreshCandidates: a target over session vocabulary
// gains a member when another user applies a certain measurement — nothing
// declared, nothing retired, the event space's generation stands still, no
// epoch bump — and the ranking user's plan survives as a plan-cache hit. The
// hit must still rank the target's current members: the candidate list is
// resolved per rank through the membership memo (valid by c_CtxB's write
// version), not remembered by the plan.
func TestSurvivingPlanResolvesFreshCandidates(t *testing.T) {
	srv := NewServer(modelSystem(t), Options{CacheSize: -1})
	set := func(user, concept string, prob float64) {
		t.Helper()
		if _, err := srv.SetSession(user, []Measurement{{Concept: concept, Prob: prob}}); err != nil {
			t.Fatal(err)
		}
	}
	set("carl", "CtxB", 1)
	set("bob", "CtxA", 0.8)
	set("ada", "CtxC", 1) // registers ada: her next apply grows no domain
	ids := func(res []contextrank.Result) string {
		var out []string
		for _, r := range res {
			out = append(out, r.ID)
		}
		return fmt.Sprint(out)
	}
	rankBob := func() []contextrank.Result {
		t.Helper()
		res, _, err := srv.Rank("bob", "CtxB", contextrank.RankOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if got := ids(rankBob()); got != "[carl]" {
		t.Fatalf("members of CtxB = %s, want [carl]", got)
	}
	before := srv.Stats()
	set("ada", "CtxB", 1)
	got := rankBob()
	after := srv.Stats()
	if after.Epoch != before.Epoch {
		t.Fatalf("ada's apply bumped the epoch %d -> %d: the test no longer exercises a surviving plan", before.Epoch, after.Epoch)
	}
	if after.Plans.Hits != before.Plans.Hits+1 || after.Plans.Misses != before.Plans.Misses {
		t.Fatalf("bob's rank after ada's apply: plan cache %+v -> %+v, want a hit", before.Plans, after.Plans)
	}
	if ids(got) != "[ada carl]" {
		t.Fatalf("bob's surviving plan ranked %s, want [ada carl]", ids(got))
	}
	sameResults(t, got, freshRank(t, srv.Facade(), "bob", "CtxB"))
}

// TestCachedRankFollowsItsTargetsMembers is the rank-cache half of the same
// leak: carl holds InKitchen and bob's rank of target=InKitchen is cached;
// ada's apply of InKitchen moves neither the epoch nor bob's fingerprint, so
// the key still matches — but the entry carries the target's membership
// handle, which c_InKitchen's write made stale, and bob's next rank (single or
// batched) is computed, not served.
func TestCachedRankFollowsItsTargetsMembers(t *testing.T) {
	srv := NewServer(modelSystem(t), Options{})
	set := func(user string) {
		t.Helper()
		if _, err := srv.SetSession(user, []Measurement{{Concept: "InKitchen", Prob: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	rankBob := func(want string, wantCached bool) {
		t.Helper()
		res, meta, err := srv.Rank("bob", "InKitchen", contextrank.RankOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var ids []string
		for _, r := range res {
			ids = append(ids, r.ID)
		}
		if got := fmt.Sprint(ids); got != want || meta.Cached != wantCached {
			t.Fatalf("bob's rank of InKitchen = %s cached=%v, want %s cached=%v", got, meta.Cached, want, wantCached)
		}
		sameResults(t, res, freshRank(t, srv.Facade(), "bob", "InKitchen"))
	}
	set("carl")
	rankBob("[carl]", false)
	rankBob("[carl]", true)
	epoch := srv.Stats().Epoch
	set("ada")
	if got := srv.Stats().Epoch; got != epoch {
		t.Fatalf("ada's apply bumped the epoch %d -> %d: the key would have changed anyway", epoch, got)
	}
	rankBob("[ada carl]", false)
	rankBob("[ada carl]", true)

	batch := func(wantIDs int, wantCached bool) {
		t.Helper()
		out, _, err := srv.RankBatch("bob", "", []RankItem{{Target: "InKitchen"}})
		if err != nil || out[0].Err != nil {
			t.Fatal(err, out[0].Err)
		}
		if len(out[0].Results) != wantIDs || out[0].Cached != wantCached {
			t.Fatalf("batched rank of InKitchen: %d results cached=%v, want %d cached=%v", len(out[0].Results), out[0].Cached, wantIDs, wantCached)
		}
	}
	batch(2, true)
	set("dora")
	batch(3, false)
	batch(3, true)
}

// TestVocabWriteRefreshesPlansAndSharesQueries pins what a vocabulary write
// costs: every user's next rank refreshes that user's plan — none recompiles —
// and the membership work behind those refreshes is paid once per written
// view, not once per user: a patch (the written individuals re-read) when the
// write went through the loader, a view query when SQL made it; a write to a
// table no rule or target reads costs neither.
func TestVocabWriteRefreshesPlansAndSharesQueries(t *testing.T) {
	srv := NewServer(modelSystem(t), Options{CacheSize: -1})
	if _, err := srv.Declare([]string{"Unrelated"}, nil, nil); err != nil {
		t.Fatal(err)
	}
	const n = 6
	users := make([]string, n)
	for i := range users {
		users[i] = fmt.Sprintf("user%d", i)
		if _, err := srv.SetSession(users[i], []Measurement{{Concept: "CtxA", Prob: 0.3 + 0.1*float64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	rankAll := func() {
		t.Helper()
		for _, u := range users {
			got, _, err := srv.Rank(u, "TvProgram", contextrank.RankOptions{})
			if err != nil {
				t.Fatal(err)
			}
			// Read the delta before the uncached reference adds its look-ups.
			st := srv.Stats()
			sameResults(t, got, freshRank(t, srv.Facade(), u, "TvProgram"))
			if extra := srv.Stats().Memberships.Queries - st.Memberships.Queries; extra != 0 {
				t.Fatalf("%s: the fresh reference rank queried %d views the served rank had not", u, extra)
			}
		}
	}
	rankAll() // compiles the n plans
	if st := srv.Stats().Plans; st.Misses != n || st.Refreshed != 0 || st.Size != n {
		t.Fatalf("after the first ranks: plan cache %+v, want %d compiles", st, n)
	}
	step := func(name string, write func() error, wantPatched, wantQueries int64) {
		t.Helper()
		before := srv.Stats()
		if err := write(); err != nil {
			t.Fatal(err)
		}
		rankAll()
		after := srv.Stats()
		if after.Epoch == before.Epoch {
			t.Fatalf("%s: no epoch bump", name)
		}
		misses, refreshed := after.Plans.Misses-before.Plans.Misses, after.Plans.Refreshed-before.Plans.Refreshed
		if misses != n || refreshed != n || after.Plans.Size != n {
			t.Fatalf("%s: %d plan misses, %d refreshed, %d entries — want %d refreshes, no compile, one entry per user",
				name, misses, refreshed, after.Plans.Size, n)
		}
		patched, queries := after.Memberships.Patched-before.Memberships.Patched, after.Memberships.Queries-before.Memberships.Queries
		if patched != wantPatched || queries != wantQueries {
			t.Fatalf("%s: %d patches and %d view queries for %d users' ranks, want %d and %d", name, patched, queries, n, wantPatched, wantQueries)
		}
	}
	// modelSystem's four rules prefer two distinct expressions (genre g0,
	// genre g1); both views read r_hasGenre, the target's does not.
	step("role assert", func() error {
		_, err := srv.Assert(nil, []RoleAssertion{{Role: "hasGenre", Src: "tv03", Dst: "g0", Prob: 0.5}})
		return err
	}, 2, 0)
	// A new program: target and both preferences read c_TvProgram, and the
	// first-seen individual grows dl_domain under the nominals.
	step("concept assert", func() error {
		_, err := srv.Assert([]ConceptAssertion{{Concept: "TvProgram", ID: "tv10", Prob: 1}}, nil)
		return err
	}, 3, 0)
	step("sql delete", func() error {
		_, _, err := srv.Exec("DELETE FROM r_hasGenre WHERE src = 'tv07'")
		return err
	}, 0, 2)
	// tv00 is registered already: only c_Unrelated is written.
	step("write nothing reads", func() error {
		_, err := srv.Assert([]ConceptAssertion{{Concept: "Unrelated", ID: "tv00", Prob: 1}}, nil)
		return err
	}, 0, 0)
	// A rule change is the one vocabulary write a refresh cannot absorb.
	before := srv.Stats().Plans
	if _, _, err := srv.AddRules([]string{"RULE extra WHEN CtxA PREFER TvProgram WITH 0.55"}); err != nil {
		t.Fatal(err)
	}
	rankAll()
	if after := srv.Stats().Plans; after.Misses-before.Misses != n || after.Refreshed != before.Refreshed || after.Size != n {
		t.Fatalf("after a rule add: plan cache %+v -> %+v, want %d compiles replacing the entries in place", before, after, n)
	}
}

// TestAdHocTargetStreamKeepsMemoBounded: a client ranking an unbounded stream
// of distinct targets cannot grow the membership memo past its bound, and the
// stream does not cost the user's plan its place.
func TestAdHocTargetStreamKeepsMemoBounded(t *testing.T) {
	srv := NewServer(modelSystem(t), Options{CacheSize: -1})
	if _, err := srv.SetSession("bob", []Measurement{{Concept: "CtxA", Prob: 0.8}}); err != nil {
		t.Fatal(err)
	}
	const stream = 1300
	for i := 0; i < stream; i++ {
		target := fmt.Sprintf("TvProgram AND {tv%02d, adhoc%d}", i%10, i)
		res, _, err := srv.Rank("bob", target, contextrank.RankOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 1 || res[0].ID != fmt.Sprintf("tv%02d", i%10) {
			t.Fatalf("target %q ranked %v", target, res)
		}
	}
	st := srv.Stats()
	if st.Memberships.Entries == 0 || st.Memberships.Entries >= stream {
		t.Fatalf("memo holds %d handles after %d distinct targets", st.Memberships.Entries, stream)
	}
	if st.Plans.Misses != 1 || st.Plans.Hits != stream-1 {
		t.Fatalf("plan cache %+v, want one compile and %d hits", st.Plans, stream-1)
	}
}
