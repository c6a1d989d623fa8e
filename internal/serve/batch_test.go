package serve

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	contextrank "repro"
	"repro/internal/event"
	"repro/internal/workload"
)

// batchServer builds a serving stack over the small TV-watcher dataset
// with k rules and a session for person0000.
func batchServer(t testing.TB, k int) (*Server, string) {
	t.Helper()
	sys := contextrank.NewSystem()
	if _, err := workload.LoadBench(sys.Loader(), sys.Rules(), workload.SmallSpec(), k); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(sys, Options{})
	user := "person0000"
	var ms []Measurement
	for i := 0; i < k; i++ {
		if i%2 == 0 {
			ms = append(ms, Measurement{Concept: workload.BenchContextConcept(i), Prob: 0.9})
		}
	}
	if _, err := srv.SetSession(user, ms); err != nil {
		t.Fatal(err)
	}
	return srv, user
}

// TestRankBatchMatchesSingleRanks: every batch item must return exactly
// what the equivalent single Rank / candidate-list call returns.
func TestRankBatchMatchesSingleRanks(t *testing.T) {
	srv, user := batchServer(t, 4)
	items := []RankItem{
		{Target: "TvProgram", Limit: 5},
		{Target: "TvProgram", Limit: 5, Explain: true},
		{Candidates: []string{"tv000", "tv001", "tv002"}},
	}
	got, meta, err := srv.RankBatch(user, "", items)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(items) {
		t.Fatalf("%d item results, want %d", len(got), len(items))
	}
	if meta.Cached {
		t.Fatal("fresh batch reported fully cached")
	}
	for i, item := range got {
		if item.Err != nil {
			t.Fatalf("item %d: %v", i, item.Err)
		}
	}

	single, _, err := srv.Rank(user, "TvProgram", contextrank.RankOptions{Limit: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(single) != len(got[0].Results) {
		t.Fatalf("batch target item returned %d results, single rank %d", len(got[0].Results), len(single))
	}
	for i := range single {
		if single[i].ID != got[0].Results[i].ID || math.Abs(single[i].Score-got[0].Results[i].Score) > 1e-12 {
			t.Fatalf("batch/single divergence at %d: %+v vs %+v", i, got[0].Results[i], single[i])
		}
	}
	if got[1].Results[0].Explanation == nil {
		t.Fatal("explain batch item carried no explanation")
	}
	var viaFacade []contextrank.Result
	err = srv.Facade().WithRead(func(sys *contextrank.System) error {
		r, rerr := sys.RankCandidates(user, nil, []string{"tv000", "tv001", "tv002"}, contextrank.RankOptions{})
		viaFacade = r
		return rerr
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(viaFacade) != len(got[2].Results) {
		t.Fatalf("candidate item returned %d results, want %d", len(got[2].Results), len(viaFacade))
	}
	for i := range viaFacade {
		if viaFacade[i].ID != got[2].Results[i].ID || math.Abs(viaFacade[i].Score-got[2].Results[i].Score) > 1e-12 {
			t.Fatalf("candidate batch divergence at %d", i)
		}
	}

	// A second identical batch: target items now come from the rank cache,
	// and the whole batch reuses the compiled plan.
	got2, meta2, err := srv.RankBatch(user, "", items)
	if err != nil {
		t.Fatal(err)
	}
	if !got2[0].Cached || !got2[1].Cached {
		t.Fatalf("repeat batch target items not cached: %+v", []bool{got2[0].Cached, got2[1].Cached})
	}
	if meta2.Cached {
		t.Fatal("batch with a candidate-list item cannot be fully cached")
	}
	st := srv.Stats()
	if st.Plans.Hits == 0 {
		t.Fatalf("plan cache recorded no hits across batches: %+v", st.Plans)
	}
	if st.Plans.Size != 1 {
		t.Fatalf("plan cache holds %d plans, want 1 (same user, epoch, rules)", st.Plans.Size)
	}
}

// TestRankBatchPerItemErrors: a bad item fails alone; the rest of the
// batch still ranks.
func TestRankBatchPerItemErrors(t *testing.T) {
	srv, user := batchServer(t, 2)
	got, _, err := srv.RankBatch(user, "", []RankItem{
		{Target: "TvProgram", Limit: 3},
		{Target: "NOT ) VALID ("},
		{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Err != nil || len(got[0].Results) == 0 {
		t.Fatalf("good item failed: %v", got[0].Err)
	}
	if got[1].Err == nil {
		t.Fatal("bad target expression did not fail its item")
	}
	if got[2].Err == nil {
		t.Fatal("empty item did not fail")
	}

	// Batch-level failures: no user, no items, unknown algorithm. A rejected
	// batch ranked nothing and counts no rank request.
	if _, _, err := srv.RankBatch("", "", []RankItem{{Target: "TvProgram"}}); err == nil {
		t.Fatal("empty user accepted")
	}
	if _, _, err := srv.RankBatch(user, "", nil); err == nil {
		t.Fatal("empty batch accepted")
	}
	if _, _, err := srv.RankBatch(user, "nonsense", []RankItem{{Target: "TvProgram"}}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if got := srv.Stats().Requests; got != 3 {
		t.Fatalf("rank_requests = %d after one batch of three items and three rejected batches, want 3", got)
	}
}

// TestRankBatchAlgorithms: naive batches agree with factorized batches
// (same semantics), and a batch under view or sampled — experiment rankers
// the server does not serve — is refused whole.
func TestRankBatchAlgorithms(t *testing.T) {
	srv, user := batchServer(t, 3)
	items := []RankItem{{Target: "TvProgram"}, {Candidates: []string{"tv000", "tv001"}}}
	fact, _, err := srv.RankBatch(user, contextrank.AlgorithmFactorized, items)
	if err != nil {
		t.Fatal(err)
	}
	naive, _, err := srv.RankBatch(user, contextrank.AlgorithmNaive, items)
	if err != nil {
		t.Fatal(err)
	}
	for i := range fact {
		if fact[i].Err != nil || naive[i].Err != nil {
			t.Fatalf("item %d errored: %v / %v", i, fact[i].Err, naive[i].Err)
		}
		if len(fact[i].Results) != len(naive[i].Results) {
			t.Fatalf("item %d: %d vs %d results", i, len(fact[i].Results), len(naive[i].Results))
		}
		for j := range fact[i].Results {
			if math.Abs(fact[i].Results[j].Score-naive[i].Results[j].Score) > 1e-9 {
				t.Fatalf("item %d result %d: factorized %g, naive %g",
					i, j, fact[i].Results[j].Score, naive[i].Results[j].Score)
			}
		}
	}
	for _, alg := range []contextrank.Algorithm{"view", "sampled"} {
		if _, _, err := srv.RankBatch(user, alg, items); err == nil {
			t.Fatalf("batch under %s accepted", alg)
		}
	}
}

// TestPlanCacheInvalidation: the user's own session applies (applied
// generation), rule changes (context generation) and data writes a
// preference reads (the plan's handles) must each invalidate the user's
// cached plan — and another user's apply, or a data write no rule reads, must
// not.
func TestPlanCacheInvalidation(t *testing.T) {
	srv, user := batchServer(t, 4)
	// Every probe uses a fresh limit so it always misses the rank-result
	// cache and consults the plan cache (a result-cache hit never needs a
	// plan — person0001's session update below changes neither person0000's
	// fingerprint nor the epoch, which is exactly the point).
	limit := 0
	rank := func() {
		t.Helper()
		limit++
		if _, _, err := srv.Rank(user, "TvProgram", contextrank.RankOptions{Limit: limit}); err != nil {
			t.Fatal(err)
		}
	}
	rank()
	misses := srv.plans.misses.Load()

	// Same state: a distinct request shares the compiled plan.
	rank()
	if got := srv.plans.misses.Load(); got != misses {
		t.Fatalf("second target recompiled the plan (misses %d -> %d)", misses, got)
	}

	// Another user's session update touches nothing the plan holds.
	if _, err := srv.SetSession("person0001", []Measurement{{Concept: workload.BenchContextConcept(0), Prob: 0.5}}); err != nil {
		t.Fatal(err)
	}
	rank()
	if got := srv.plans.misses.Load(); got != misses {
		t.Fatalf("another user's session apply invalidated the plan (misses %d -> %d)", misses, got)
	}

	// The user's own session update moves their applied generation, even
	// when the measurements (and so the fingerprint) stay the same.
	ms, _, _ := srv.SessionInfo(user)
	if _, err := srv.SetSession(user, ms); err != nil {
		t.Fatal(err)
	}
	rank()
	if got := srv.plans.misses.Load(); got != misses+1 {
		t.Fatalf("own session apply did not invalidate the plan (misses %d -> %d)", misses, got)
	}
	misses = srv.plans.misses.Load()

	// A rule change bumps the facade epoch — the only thing pinning the
	// rule set a plan compiled — whether it adds a rule or removes one.
	if _, _, err := srv.AddRules([]string{"RULE PLANX WHEN BenchCtx0 PREFER TvProgram WITH 0.6"}); err != nil {
		t.Fatal(err)
	}
	rank()
	if got := srv.plans.misses.Load(); got != misses+1 {
		t.Fatalf("rule add did not invalidate the plan (misses %d -> %d)", misses, got)
	}
	misses = srv.plans.misses.Load()
	if _, err := srv.RemoveRule("PLANX"); err != nil {
		t.Fatal(err)
	}
	rank()
	if got := srv.plans.misses.Load(); got != misses+1 {
		t.Fatalf("rule removal did not invalidate the plan (misses %d -> %d)", misses, got)
	}
	misses = srv.plans.misses.Load()

	// A data write bumps the facade epoch, but one that no rule reads moves
	// nothing the plan stands on: neither the context generation nor a table
	// a preference reads.
	epoch := srv.facade.Epoch()
	if _, err := srv.Assert(nil, []RoleAssertion{{Role: "watched", Src: user, Dst: "tv001", Prob: 0.9}}); err != nil {
		t.Fatal(err)
	}
	rank()
	if got := srv.plans.misses.Load(); got != misses || srv.facade.Epoch() == epoch {
		t.Fatalf("a data write no rule reads: epoch %d -> %d, plan misses %d -> %d; want an epoch bump and the plan kept", epoch, srv.facade.Epoch(), misses, got)
	}
	// One a preference reads invalidates the plan.
	if _, err := srv.Assert(nil, []RoleAssertion{{Role: "hasGenre", Src: "tv001", Dst: "genre00", Prob: 0.9}}); err != nil {
		t.Fatal(err)
	}
	rank()
	if got := srv.plans.misses.Load(); got != misses+1 {
		t.Fatalf("data write did not invalidate the plan (misses %d -> %d)", misses, got)
	}
}

// chainSystem builds the bound-exceeding rule set: n = maxClusterRules+1
// rules over one context concept, ChainCtx — or, ownCtx, rule i over its own
// ChainCtx<i> — where document d_i couples rules i and i+1 through one shared
// event. The candidate-independent footprint partition chains every rule into
// one oversized cluster, but any single candidate's events touch at most two
// rules: under a certain context, or one context concept per rule, every
// candidate's clusters stay that small. An uncertain shared ChainCtx joins
// all n rules for every candidate.
func chainSystem(t testing.TB, ownCtx bool) (sys *contextrank.System, n int) {
	t.Helper()
	sys = contextrank.NewSystem()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(sys.DeclareConcept("Doc", "ChainCtx"))
	n = 17
	l, space := sys.Loader(), sys.DB().Space()
	for i := 0; i < n; i++ {
		must(sys.DeclareConcept(fmt.Sprintf("F%02d", i)))
		must(space.Declare(fmt.Sprintf("chain%02d", i), 0.5))
	}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("d%02d", i)
		must(l.AssertConcept("Doc", id, nil))
		ev := event.Basic(fmt.Sprintf("chain%02d", i))
		must(l.AssertConcept(fmt.Sprintf("F%02d", i), id, ev))
		if i+1 < n {
			must(l.AssertConcept(fmt.Sprintf("F%02d", i+1), id, ev))
		}
	}
	for i := 0; i < n; i++ {
		ctx := "ChainCtx"
		if ownCtx {
			ctx = fmt.Sprintf("ChainCtx%02d", i)
		}
		_, err := sys.AddRule(fmt.Sprintf("RULE r%02d WHEN %s PREFER F%02d WITH 0.6", i, ctx, i))
		must(err)
	}
	return sys, n
}

// TestRankClusterBoundFallback: a rule set whose candidate-independent
// footprint partition exceeds the plan cluster bound must still rank
// through the serve layer (single and batch) — its plan scores per
// candidate — and that plan is cached like any other.
func TestRankClusterBoundFallback(t *testing.T) {
	sys, n := chainSystem(t, false)
	srv := NewServer(sys, Options{})
	if _, err := srv.SetSession("chainuser", []Measurement{{Concept: "ChainCtx", Prob: 1}}); err != nil {
		t.Fatal(err)
	}
	// With the context applied (rules active), the rule set compiles.
	err := srv.Facade().WithRead(func(sys *contextrank.System) error {
		plan, cerr := sys.CompileRankPlan("chainuser")
		if cerr != nil {
			return cerr
		}
		res, cerr := sys.RankWithPlan(plan, "Doc", contextrank.RankOptions{Limit: 1, Explain: true})
		if cerr != nil {
			return cerr
		}
		active := 0
		for _, rc := range res[0].Explanation.Rules {
			if !rc.Pruned {
				active++
			}
		}
		if active != n {
			t.Errorf("%d active rules, want %d", active, n)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("chained rule set did not compile: %v", err)
	}
	res, _, err := srv.Rank("chainuser", "Doc", contextrank.RankOptions{})
	if err != nil {
		t.Fatalf("single rank failed: %v", err)
	}
	if len(res) != n {
		t.Fatalf("%d results, want %d", len(res), n)
	}
	// The plan cache holds the real plan, not a verdict about it: one
	// compile so far, and everything below — distinct requests, so the rank
	// cache cannot answer — is a plan-cache hit.
	if st := srv.Stats().Plans; st.Size != 1 || st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("after the first rank: plan cache %+v, want one compiled entry", st)
	}
	batch, _, err := srv.RankBatch("chainuser", "", []RankItem{
		{Target: "Doc", Limit: 5},
		{Candidates: []string{"d00", "d01"}},
	})
	if err != nil {
		t.Fatalf("batch failed: %v", err)
	}
	for i, item := range batch {
		if item.Err != nil {
			t.Fatalf("batch item %d: %v", i, item.Err)
		}
	}
	if _, _, err := srv.Rank("chainuser", "Doc", contextrank.RankOptions{Limit: 3}); err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats().Plans; st.Size != 1 || st.Misses != 1 || st.Hits != 2 {
		t.Fatalf("repeat requests: plan cache %+v, want 2 hits on the one compiled entry", st)
	}
	// A first-seen user's apply registers an individual. That grows
	// dl_domain, which none of the chain's atomic preferences reads: every
	// membership the plan holds is still current, so it keeps serving.
	if _, err := srv.SetSession("other", []Measurement{{Concept: "ChainCtx", Prob: 0.5}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := srv.Rank("chainuser", "Doc", contextrank.RankOptions{Limit: 4}); err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats().Plans; st.Misses != 1 || st.Hits != 3 {
		t.Fatalf("after another user's first apply: plan cache %+v, want a third hit", st)
	}
	// A write to a table a preference reads stales the plan (Current); the
	// per-candidate plan is compiled again, in place of the stale entry.
	if _, err := srv.Assert([]ConceptAssertion{{Concept: "F03", ID: "d09", Prob: 1}}, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := srv.Rank("chainuser", "Doc", contextrank.RankOptions{Limit: 4}); err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats().Plans; st.Misses != 2 || st.Refreshed != 1 || st.Size != 1 {
		t.Fatalf("after a data write: plan cache %+v, want a second compile replacing the stale entry", st)
	}
}

// TestNaiveRankRefusedPastStateBudget: the naive reference over the 17-rule
// chain with its context certain would enumerate 2^17 × 18 states for
// seconds under the facade read lock. It is refused before it enumerates,
// with a 422 too_costly that names the rules, the candidates and the
// budget, and the factorized rank of the same target still returns every
// document.
func TestNaiveRankRefusedPastStateBudget(t *testing.T) {
	sys, n := chainSystem(t, false)
	srv := NewServer(sys, Options{})
	if _, err := srv.SetSession("chainuser", []Measurement{{Concept: "ChainCtx", Prob: 1}}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewHandlerFor(srv))
	defer ts.Close()
	var refused errorResponse
	started := time.Now()
	call(t, ts, "POST", "/v1/rank", `{"user":"chainuser","target":"Doc","algorithm":"naive"}`, http.StatusUnprocessableEntity, &refused)
	if took := time.Since(started); took > 500*time.Millisecond {
		t.Errorf("the refusal took %v, want under 500ms", took)
	}
	for _, want := range []string{"17 rules", "17 candidates", "budget of 1048576"} {
		if refused.Code != "too_costly" || !strings.Contains(refused.Error, want) {
			t.Fatalf("refusal = %+v, want too_costly naming %q", refused, want)
		}
	}
	var ranked rankResponse
	call(t, ts, "POST", "/v1/rank", `{"user":"chainuser","target":"Doc"}`, http.StatusOK, &ranked)
	if len(ranked.Results) != n {
		t.Fatalf("factorized rank returned %d results, want %d", len(ranked.Results), n)
	}
}

// TestRankPastClusterBoundIsTooCostly: under one uncertain context shared
// by the 17 chained rules, every candidate's rules form one correlation
// cluster past the exact-enumeration bound. The request is valid, so both
// single-rank routes answer 422 too_costly, not a malformed request's 400;
// a batch item keeps its error string.
func TestRankPastClusterBoundIsTooCostly(t *testing.T) {
	sys, _ := chainSystem(t, false)
	srv := NewServer(sys, Options{})
	if _, err := srv.SetSession("chainuser", []Measurement{{Concept: "ChainCtx", Prob: 0.7}}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewHandlerFor(srv))
	defer ts.Close()
	for _, route := range []struct{ method, path, body string }{
		{"POST", "/v1/rank", `{"user":"chainuser","target":"Doc"}`},
		{"GET", "/v1/rank?user=chainuser&target=Doc", ""},
	} {
		var refused errorResponse
		call(t, ts, route.method, route.path, route.body, http.StatusUnprocessableEntity, &refused)
		if refused.Code != "too_costly" || !strings.Contains(refused.Error, "exact-enumeration bound") {
			t.Fatalf("%s %s: refusal = %+v, want too_costly naming the bound", route.method, route.path, refused)
		}
	}
	var batch struct {
		Items []struct {
			Error string `json:"error"`
		} `json:"items"`
	}
	call(t, ts, "POST", "/v1/rank/batch", `{"user":"chainuser","items":[{"target":"Doc"}]}`, http.StatusOK, &batch)
	if len(batch.Items) != 1 || !strings.Contains(batch.Items[0].Error, "exact-enumeration bound") {
		t.Fatalf("batch = %+v, want one item naming the bound", batch)
	}
}

// TestHTTPRankBatch drives the batch endpoint over HTTP, including the
// sharded coordinator (the batch must land on the user's shard).
func TestHTTPRankBatch(t *testing.T) {
	srv, user := batchServer(t, 4)
	ts := httptest.NewServer(NewHandlerFor(srv))
	defer ts.Close()

	body := fmt.Sprintf(`{"user":%q,"items":[
		{"target":"TvProgram","limit":3},
		{"candidates":["tv000","tv001"]},
		{"target":"NOT ) VALID ("}
	]}`, user)
	var resp struct {
		Items []struct {
			Results []struct {
				ID    string  `json:"id"`
				Score float64 `json:"score"`
			} `json:"results"`
			Cached bool   `json:"cached"`
			Error  string `json:"error"`
		} `json:"items"`
		Epoch  int64 `json:"epoch"`
		Micros int64 `json:"micros"`
	}
	call(t, ts, "POST", "/v1/rank/batch", body, http.StatusOK, &resp)
	if len(resp.Items) != 3 {
		t.Fatalf("%d items, want 3", len(resp.Items))
	}
	if len(resp.Items[0].Results) != 3 || len(resp.Items[1].Results) != 2 {
		t.Fatalf("unexpected result counts: %d, %d", len(resp.Items[0].Results), len(resp.Items[1].Results))
	}
	if resp.Items[2].Error == "" {
		t.Fatal("bad item returned no error over HTTP")
	}

	// Batch-level errors surface as HTTP 400.
	call(t, ts, "POST", "/v1/rank/batch", `{"user":"","items":[{"target":"TvProgram"}]}`, http.StatusBadRequest, nil)
	call(t, ts, "POST", "/v1/rank/batch", fmt.Sprintf(`{"user":%q,"items":[]}`, user), http.StatusBadRequest, nil)
}

// TestServeRankBatchChurnSoak compiles and uses plans concurrently with
// session applies and drops: the plan cache must never serve a plan whose
// context events were retired (visible as "not declared" rank errors), and
// batches must agree with single ranks throughout. Run with -race in CI.
func TestServeRankBatchChurnSoak(t *testing.T) {
	const k = 4
	srv, _ := batchServer(t, k)
	iters := 300
	if testing.Short() {
		iters = 60
	}
	users := make([]string, 4)
	for i := range users {
		users[i] = fmt.Sprintf("person%04d", i)
	}

	var wg sync.WaitGroup
	errc := make(chan error, len(users)*2)
	for w, user := range users {
		wg.Add(1)
		go func(w int, user string) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch {
				case w%2 == 0: // ranker: alternate batch and single
					if i%2 == 0 {
						items := []RankItem{
							{Target: "TvProgram", Limit: 5},
							{Candidates: []string{"tv000", "tv001", "tv002"}},
						}
						res, _, err := srv.RankBatch(user, "", items)
						if err != nil {
							errc <- fmt.Errorf("%s batch: %w", user, err)
							return
						}
						for _, item := range res {
							if item.Err != nil {
								errc <- fmt.Errorf("%s batch item: %w", user, item.Err)
								return
							}
						}
					} else if _, _, err := srv.Rank(user, "TvProgram", contextrank.RankOptions{Limit: 5}); err != nil {
						errc <- fmt.Errorf("%s rank: %w", user, err)
						return
					}
				default: // churner: update and occasionally drop the session
					ms := []Measurement{{Concept: workload.BenchContextConcept(i % k), Prob: 0.5 + float64(i%5)/10}}
					if _, err := srv.SetSession(user, ms); err != nil {
						errc <- fmt.Errorf("%s set: %w", user, err)
						return
					}
					if i%7 == 0 {
						if err := srv.DropSession(user); err != nil {
							errc <- fmt.Errorf("%s drop: %w", user, err)
							return
						}
					}
				}
			}
		}(w, user)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}
