package serve

import (
	"math"
	"slices"
	"testing"

	contextrank "repro"
)

func TestServerRankCacheHitAndEpochInvalidation(t *testing.T) {
	srv := NewServer(newTestSystem(t), Options{})
	if _, err := srv.SetSession("peter", []Measurement{{Concept: "CtxA", Prob: 1}}); err != nil {
		t.Fatal(err)
	}

	r1, m1, err := srv.Rank("peter", "TvProgram", contextrank.RankOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m1.Cached {
		t.Fatal("first rank cannot be cached")
	}
	r2, m2, err := srv.Rank("peter", "TvProgram", contextrank.RankOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !m2.Cached {
		t.Fatal("second rank should hit the cache")
	}
	sameResults(t, r2, r1)

	// A data mutation bumps the epoch and must invalidate: the next rank
	// recomputes and equals a fresh uncached ranking.
	if _, err := srv.Assert(nil, []RoleAssertion{{Role: "hasGenre", Src: "tv01", Dst: "g0", Prob: 0.9}}); err != nil {
		t.Fatal(err)
	}
	r3, m3, err := srv.Rank("peter", "TvProgram", contextrank.RankOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m3.Cached {
		t.Fatal("rank after mutation must not be served from cache")
	}
	if m3.Epoch <= m1.Epoch {
		t.Fatalf("epoch did not advance: %d -> %d", m1.Epoch, m3.Epoch)
	}
	fresh := freshRank(t, srv.Facade(), "peter", "TvProgram")
	sameResults(t, r3, fresh)

	// tv01 gained a probable g0 genre, so its score must have moved.
	score := func(rs []contextrank.Result, id string) float64 {
		for _, r := range rs {
			if r.ID == id {
				return r.Score
			}
		}
		t.Fatalf("no %s in results", id)
		return 0
	}
	if score(r3, "tv01") == score(r1, "tv01") {
		t.Fatal("mutation had no effect on tv01's score — invalidation test is vacuous")
	}
}

func TestSessionUpdateInvalidatesOnlyThatUser(t *testing.T) {
	srv := NewServer(newTestSystem(t), Options{})
	if _, err := srv.SetSession("peter", []Measurement{{Concept: "CtxA", Prob: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.SetSession("maria", []Measurement{{Concept: "CtxB", Prob: 1}}); err != nil {
		t.Fatal(err)
	}
	epochBefore := srv.Facade().Epoch()

	rp, _, err := srv.Rank("peter", "TvProgram", contextrank.RankOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := srv.Rank("maria", "TvProgram", contextrank.RankOptions{}); err != nil {
		t.Fatal(err)
	}

	// Maria's context changes. Session updates must not bump the epoch...
	if _, err := srv.SetSession("maria", []Measurement{{Concept: "CtxA", Prob: 1}}); err != nil {
		t.Fatal(err)
	}
	if got := srv.Facade().Epoch(); got != epochBefore {
		t.Fatalf("session update bumped epoch %d -> %d", epochBefore, got)
	}

	// ...so peter still hits his cache, and the cached scores stay exact.
	rp2, mp2, err := srv.Rank("peter", "TvProgram", contextrank.RankOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !mp2.Cached {
		t.Fatal("peter's entry should have survived maria's update")
	}
	sameResults(t, rp2, rp)
	freshP := freshRank(t, srv.Facade(), "peter", "TvProgram")
	sameResults(t, rp2, freshP)

	// Maria's own next rank is a miss and reflects her new context: under
	// CtxA she now prefers g0 programs, like peter.
	rm2, mm2, err := srv.Rank("maria", "TvProgram", contextrank.RankOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if mm2.Cached {
		t.Fatal("maria's rank after her context change must recompute")
	}
	sameResults(t, rm2, freshP)
}

func TestSessionFingerprints(t *testing.T) {
	srv := NewServer(newTestSystem(t), Options{})
	s := srv.Sessions()
	fp1, err := srv.SetSession("peter", []Measurement{{Concept: "CtxA", Prob: 1}})
	if err != nil {
		t.Fatal(err)
	}
	fp2, err := srv.SetSession("peter", []Measurement{{Concept: "CtxA", Prob: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	if fp1 == fp2 {
		t.Fatal("different measurements must fingerprint differently")
	}
	fp3, err := srv.SetSession("peter", []Measurement{{Concept: "CtxA", Prob: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if fp3 != fp1 {
		t.Fatal("identical measurements must fingerprint identically")
	}
	if _, got, _ := s.Snapshot("peter"); got != fp3 {
		t.Fatalf("Snapshot fingerprint = %q, want %q", got, fp3)
	}
	if got := s.appliedContext("peter").fingerprint; got != fp3 {
		t.Fatalf("applied fingerprint = %q, want %q", got, fp3)
	}
	if _, got, ok := s.Snapshot("nobody"); ok || got != "" {
		t.Fatalf("Snapshot for unknown user = %q, %v; want empty", got, ok)
	}
	// Measurement fields are free-form bytes; crafted separator bytes in
	// one field must not collide two different lists (which would pin
	// the fingerprint and disable the user's cache invalidation).
	a := fingerprint("u", []Measurement{
		{Concept: "CtxA", Prob: 1, Exclusive: "g"},
		{Concept: "CtxB", Prob: 1},
	})
	b := fingerprint("u", []Measurement{
		{Concept: "CtxA", Prob: 1, Exclusive: "g\x00CtxB\x01\x021\x03"},
	})
	if a == b {
		t.Fatal("separator injection collided two measurement lists")
	}
	if s.Count() != 1 {
		t.Fatalf("Count = %d, want 1", s.Count())
	}
	if err := srv.DropSession("peter"); err != nil {
		t.Fatal(err)
	}
	if s.Count() != 0 {
		t.Fatal("session survived Drop")
	}
	if err := srv.DropSession("peter"); err != nil {
		t.Fatal("double Drop should be a no-op, got", err)
	}
}

func TestSessionValidation(t *testing.T) {
	srv := NewServer(newTestSystem(t), Options{})
	if _, err := srv.SetSession("", nil); err == nil {
		t.Fatal("empty user accepted")
	}
	if _, err := srv.SetSession("peter", []Measurement{{Concept: "", Prob: 1}}); err == nil {
		t.Fatal("empty concept accepted")
	}
	if _, err := srv.SetSession("peter", []Measurement{{Concept: "CtxA", Prob: 1.5}}); err == nil {
		t.Fatal("probability > 1 accepted")
	}
	if _, err := srv.SetSession("peter", []Measurement{{Concept: "CtxA", Prob: math.NaN()}}); err == nil {
		t.Fatal("NaN probability accepted")
	}
	if _, err := srv.SetSession("peter", []Measurement{
		{Concept: "CtxA", Prob: math.NaN(), Exclusive: "g"},
		{Concept: "CtxB", Prob: 0.1, Exclusive: "g"},
	}); err == nil {
		t.Fatal("NaN exclusive-group probability accepted")
	}
	// Only the session's own user may be asserted.
	if _, err := srv.SetSession("peter", []Measurement{{Concept: "CtxA", Individual: "maria", Prob: 1}}); err == nil {
		t.Fatal("foreign individual accepted")
	}
	// Exclusive group probabilities must sum to at most 1.
	if _, err := srv.SetSession("peter", []Measurement{
		{Concept: "CtxA", Prob: 0.7, Exclusive: "loc"},
		{Concept: "CtxB", Prob: 0.7, Exclusive: "loc"},
	}); err == nil {
		t.Fatal("exclusive group summing to 1.4 accepted")
	}
	// A failed Set must not leave a phantom session behind.
	if srv.Sessions().Count() != 0 {
		t.Fatal("failed Set left a session")
	}
}

func TestSessionRefusesDataConcepts(t *testing.T) {
	srv := NewServer(newTestSystem(t), Options{})
	// TvProgram holds ten data assertions; a session context naming it
	// would clear the catalog on apply.
	if _, err := srv.SetSession("peter", []Measurement{{Concept: "TvProgram", Prob: 1}}); err == nil {
		t.Fatal("data concept accepted as session context")
	}
	// The catalog must be untouched by the rejected update.
	res, err := srv.Facade().Query("SELECT id FROM c_TvProgram")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Fatalf("rejected session update damaged the catalog: %d rows", len(res.Rows))
	}
	// Pure context concepts — even rule-declared ones — stay usable, and
	// re-use after a prior apply (own rows in the table) stays accepted.
	for i := 0; i < 2; i++ {
		if _, err := srv.SetSession("peter", []Measurement{{Concept: "CtxA", Prob: 1}}); err != nil {
			t.Fatalf("apply %d: %v", i, err)
		}
	}
}

func TestFacadeReadPathRejectsDML(t *testing.T) {
	f := NewFacade(newTestSystem(t))
	epoch := f.Epoch()
	if _, err := f.Query("INSERT INTO c_TvProgram VALUES ('rogue', NULL)"); err == nil {
		t.Fatal("Query accepted INSERT")
	}
	if _, err := f.Query("  create table sneaky (id TEXT)"); err == nil {
		t.Fatal("Query accepted CREATE")
	}
	if _, err := f.Query("DELETE FROM c_TvProgram"); err == nil {
		t.Fatal("Query accepted DELETE")
	}
	// Rejection must happen before execution: no rogue row, no epoch move.
	res, err := f.Query("SELECT id FROM c_TvProgram")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Fatalf("DML executed through the read path: %d rows", len(res.Rows))
	}
	if f.Epoch() != epoch {
		t.Fatal("read path moved the epoch")
	}
}

func TestFailedSessionApplyRestoresPreviousContext(t *testing.T) {
	srv := NewServer(newTestSystem(t), Options{})
	if _, err := srv.SetSession("peter", []Measurement{{Concept: "CtxA", Prob: 1}}); err != nil {
		t.Fatal(err)
	}
	want := freshRank(t, srv.Facade(), "peter", "TvProgram")

	// "Ctx-X" sanitizes to the same table as "Ctx_X", so declaring the
	// latter makes a session on the former fail *inside* Context.Apply,
	// after it may already have cleared other users' context assertions.
	if _, err := srv.Declare([]string{"Ctx_X"}, nil, nil); err != nil {
		t.Fatal(err)
	}
	epochBefore := srv.Facade().Epoch()
	if _, err := srv.SetSession("maria", []Measurement{{Concept: "Ctx-X", Prob: 1}}); err == nil {
		t.Fatal("colliding concept accepted")
	}
	// Two bumps: one from the failed apply, one after the restore so
	// anything cached inside the torn window is unreachable.
	if got := srv.Facade().Epoch(); got < epochBefore+2 {
		t.Fatalf("epoch %d after failed apply, want >= %d (bump on failure and after restore)", got, epochBefore+2)
	}
	if srv.Sessions().Count() != 1 {
		t.Fatalf("failed Set left %d sessions", srv.Sessions().Count())
	}

	// Peter's context must have been restored: a fresh ranking matches
	// the pre-failure one.
	got := freshRank(t, srv.Facade(), "peter", "TvProgram")
	sameResults(t, got, want)
}

func TestSessionGuardDetectsForeignAssertions(t *testing.T) {
	srv := NewServer(newTestSystem(t), Options{})
	if _, err := srv.SetSession("peter", []Measurement{{Concept: "CtxA", Prob: 1}}); err != nil {
		t.Fatal(err)
	}
	// Someone injects data into the accepted context concept.
	if _, err := srv.Facade().WithWriteEpoch(func(sys *contextrank.System) error {
		return sys.AssertConcept("CtxA", "intruder", 1)
	}); err != nil {
		t.Fatal(err)
	}
	// The next apply would clear that row; it must be refused instead.
	if _, err := srv.SetSession("peter", []Measurement{{Concept: "CtxA", Prob: 0.9}}); err == nil {
		t.Fatal("apply over foreign assertions accepted")
	}
	res, err := srv.Facade().Query("SELECT id FROM c_CtxA")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("foreign assertion destroyed: %d rows", len(res.Rows))
	}
}

func TestRoleCoupledSessionUpdateBumpsEpoch(t *testing.T) {
	sys := newTestSystem(t)
	if err := sys.DeclareRole("watchesWith"); err != nil {
		t.Fatal(err)
	}
	// A rule whose context reaches another individual over a role edge:
	// bob's ranking depends on who bob watchesWith and where THEY are.
	if _, err := sys.AddRule("RULE rc WHEN EXISTS watchesWith.InKitchen PREFER TvProgram AND EXISTS hasGenre.{g0} WITH 0.7"); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(sys, Options{})
	if _, err := srv.Assert(nil, []RoleAssertion{{Role: "watchesWith", Src: "bob", Dst: "ada", Prob: 1}}); err != nil {
		t.Fatal(err)
	}

	r1, _, err := srv.Rank("bob", "TvProgram", contextrank.RankOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, m2, err := srv.Rank("bob", "TvProgram", contextrank.RankOptions{}); err != nil || !m2.Cached {
		t.Fatalf("expected cached hit (err %v)", err)
	}

	// Ada asserts only her own membership — but InKitchen sits inside the
	// rule's role filler, so bob's ranking changes: the update must
	// invalidate globally.
	before := srv.Facade().Epoch()
	if _, err := srv.SetSession("ada", []Measurement{{Concept: "InKitchen", Prob: 1}}); err != nil {
		t.Fatal(err)
	}
	if srv.Facade().Epoch() == before {
		t.Fatal("role-coupled session update did not bump the epoch")
	}
	r3, m3, err := srv.Rank("bob", "TvProgram", contextrank.RankOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m3.Cached {
		t.Fatal("bob served a stale ranking after ada's role-coupled update")
	}
	fresh := freshRank(t, srv.Facade(), "bob", "TvProgram")
	sameResults(t, r3, fresh)
	if r1[0].Score == r3[0].Score {
		t.Fatal("rule rc did not change bob's score — coupling test is vacuous")
	}

	// Role-free vocabulary keeps the per-user fast path.
	before = srv.Facade().Epoch()
	if _, err := srv.SetSession("maria", []Measurement{{Concept: "CtxA", Prob: 1}}); err != nil {
		t.Fatal(err)
	}
	if srv.Facade().Epoch() != before {
		t.Fatal("role-free session update bumped the epoch")
	}
}

func TestSessionGuardProtectsRetractedConcepts(t *testing.T) {
	srv := NewServer(newTestSystem(t), Options{})
	if _, err := srv.SetSession("peter", []Measurement{{Concept: "CtxA", Prob: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Facade().WithWriteEpoch(func(sys *contextrank.System) error {
		return sys.AssertConcept("CtxA", "intruder", 1)
	}); err != nil {
		t.Fatal(err)
	}
	// Switching to CtxB retracts CtxA (it leaves the snapshot), which
	// would clear the intruder row — must be refused even though CtxA is
	// not in the new measurement list.
	if _, err := srv.SetSession("peter", []Measurement{{Concept: "CtxB", Prob: 1}}); err == nil {
		t.Fatal("retraction over foreign assertions accepted")
	}
	// Dropping the session retracts it just the same.
	if err := srv.DropSession("peter"); err == nil {
		t.Fatal("drop over foreign assertions accepted")
	}
	res, err := srv.Facade().Query("SELECT id FROM c_CtxA")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("foreign assertion destroyed: %d rows", len(res.Rows))
	}
}

func TestAlgorithmSpellingsShareCacheEntry(t *testing.T) {
	srv := NewServer(newTestSystem(t), Options{})
	if _, err := srv.SetSession("peter", []Measurement{{Concept: "CtxA", Prob: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := srv.Rank("peter", "TvProgram", contextrank.RankOptions{}); err != nil {
		t.Fatal(err)
	}
	_, meta, err := srv.Rank("peter", "TvProgram", contextrank.RankOptions{Algorithm: contextrank.AlgorithmFactorized})
	if err != nil {
		t.Fatal(err)
	}
	if !meta.Cached {
		t.Fatal("explicit factorized spelling missed the default-algorithm entry")
	}
}

func TestSessionGuardCountsDistinctRows(t *testing.T) {
	srv := NewServer(newTestSystem(t), Options{})
	// Two measurements of the same (concept, individual) merge into one
	// table row; the guard must count 1, not 2.
	if _, err := srv.SetSession("peter", []Measurement{
		{Concept: "CtxA", Prob: 1},
		{Concept: "CtxA", Prob: 0.9},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Facade().WithWriteEpoch(func(sys *contextrank.System) error {
		return sys.AssertConcept("CtxA", "intruder", 1)
	}); err != nil {
		t.Fatal(err)
	}
	// Table now holds 2 rows (peter + intruder); with the inflated count
	// of 2 the foreign row would slip through and be destroyed.
	if _, err := srv.SetSession("peter", []Measurement{{Concept: "CtxA", Prob: 1}}); err == nil {
		t.Fatal("foreign assertion not detected after duplicate measurements")
	}
}

func TestAppliedFingerprintPublication(t *testing.T) {
	srv := NewServer(newTestSystem(t), Options{})
	s := srv.Sessions()
	if got := s.appliedContext("peter").fingerprint; got != "" {
		t.Fatalf("fingerprint before any session = %q", got)
	}
	fp, err := srv.SetSession("peter", []Measurement{{Concept: "CtxA", Prob: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.appliedContext("peter").fingerprint; got != fp {
		t.Fatalf("applied fingerprint %q != returned %q", got, fp)
	}
	// A rejected update leaves the applied fingerprint at the old value.
	if _, err := srv.SetSession("peter", []Measurement{{Concept: "TvProgram", Prob: 1}}); err == nil {
		t.Fatal("expected rejection")
	}
	if got := s.appliedContext("peter").fingerprint; got != fp {
		t.Fatalf("rejected update changed applied fingerprint to %q", got)
	}
	if err := srv.DropSession("peter"); err != nil {
		t.Fatal(err)
	}
	if got := s.appliedContext("peter").fingerprint; got != "" {
		t.Fatalf("fingerprint survives Drop: %q", got)
	}
}

func TestServerWithCacheDisabled(t *testing.T) {
	srv := NewServer(newTestSystem(t), Options{CacheSize: -1})
	if _, err := srv.SetSession("peter", []Measurement{{Concept: "CtxA", Prob: 1}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		_, meta, err := srv.Rank("peter", "TvProgram", contextrank.RankOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if meta.Cached {
			t.Fatal("cache disabled but result marked cached")
		}
	}
	st := srv.Stats()
	if st.Requests != 2 || st.Cache.Capacity != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestServerStats(t *testing.T) {
	srv := NewServer(newTestSystem(t), Options{})
	if _, err := srv.SetSession("peter", []Measurement{{Concept: "CtxA", Prob: 1}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, _, err := srv.Rank("peter", "TvProgram", contextrank.RankOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	st := srv.Stats()
	if st.Requests != 5 {
		t.Fatalf("requests = %d", st.Requests)
	}
	if st.Cache.Hits != 4 || st.Cache.Misses != 1 {
		t.Fatalf("cache stats = %+v", st.Cache)
	}
	if st.Latency.Count != 5 || st.Latency.P99Micros < st.Latency.P50Micros {
		t.Fatalf("latency stats = %+v", st.Latency)
	}
	if st.Sessions != 1 || st.Rules != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestDropAfterFirstApplyServesNoStaleRanking: a user dropped before ranking
// again reads as one that never applied — no fingerprint, generation 0 — but
// the first apply registered them, and a ¬ context reads the closed domain.
// Neither the ranking nor the plan cached before the first apply may serve
// after the drop: not straight away (the rank cache), and not once a
// first-seen user's apply has staled the plan's preference handles, which
// read the domain too, for a rank the rank cache does not hold (the plan's
// context half).
func TestDropAfterFirstApplyServesNoStaleRanking(t *testing.T) {
	sys := newTestSystem(t)
	if _, err := sys.AddRule("RULE notA WHEN NOT CtxA PREFER TvProgram AND EXISTS hasGenre.{g0} WITH 0.9"); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(sys, Options{})
	check := func(user, label string, limit int) {
		t.Helper()
		opts := contextrank.RankOptions{Limit: limit}
		got, _, err := srv.Rank(user, "TvProgram", opts)
		if err != nil {
			t.Fatal(err)
		}
		var want []contextrank.Result
		if err := srv.Facade().WithRead(func(sys *contextrank.System) (err error) {
			want, err = sys.RankWith(user, "TvProgram", opts)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: %s served %v, a fresh rank gives %v", label, user, got, want)
		}
	}
	// Neither user is in the domain yet, so notA cannot apply to them.
	check("zed", "before any apply", 0)
	check("yan", "before any apply", 0)
	for _, user := range []string{"zed", "yan"} {
		if _, err := srv.SetSession(user, []Measurement{{Concept: "CtxB", Prob: 1}}); err != nil {
			t.Fatal(err)
		}
		if err := srv.DropSession(user); err != nil {
			t.Fatal(err)
		}
	}
	check("zed", "after the drop", 0)
	if _, err := srv.SetSession("newbie", []Measurement{{Concept: "CtxB", Prob: 1}}); err != nil {
		t.Fatal(err)
	}
	check("yan", "after the drop and a first-seen user's apply", 5)
}
