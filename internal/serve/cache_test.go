package serve

import (
	"testing"

	contextrank "repro"
)

func res(ids ...string) []contextrank.Result {
	out := make([]contextrank.Result, len(ids))
	for i, id := range ids {
		out[i] = contextrank.Result{ID: id, Score: float64(len(ids) - i)}
	}
	return out
}

func TestRankKeyDistinguishesEveryDimension(t *testing.T) {
	base := rankKey("u", "T", contextrank.RankOptions{})
	variants := []string{
		rankKey("v", "T", contextrank.RankOptions{}),
		rankKey("u", "S", contextrank.RankOptions{}),
		rankKey("u", "T", contextrank.RankOptions{Threshold: 0.1}),
		rankKey("u", "T", contextrank.RankOptions{Limit: 5}),
		rankKey("u", "T", contextrank.RankOptions{TopK: 5}),
		rankKey("u", "T", contextrank.RankOptions{Explain: true}),
	}
	seen := map[string]bool{base: true}
	for i, v := range variants {
		if seen[v] {
			t.Fatalf("variant %d collides: %q", i, v)
		}
		seen[v] = true
	}
}

func TestRankKeyResistsSeparatorInjection(t *testing.T) {
	// JSON strings may contain any byte; values must not be able to
	// shift bytes between fields and collide.
	a := rankKey("a\x00b", "c", contextrank.RankOptions{})
	b := rankKey("a", "b\x00c", contextrank.RankOptions{})
	if a == b {
		t.Fatalf("cross-field collision: %q", a)
	}
}

func TestRankCacheLRUEviction(t *testing.T) {
	c := newRankCache(2)
	fill := func(key string, ids ...string) { c.put(key, ranked{res: res(ids...)}) }
	fill("a", "x")
	fill("b", "y")
	if _, ok := c.get("a"); !ok {
		t.Fatal("a missing")
	}
	// a is now MRU; adding c must evict b.
	fill("c", "z")
	if _, ok := c.get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("a should have survived (recently used)")
	}
	st := c.stats()
	if st.Evicted != 1 || st.Size != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRankCacheStoresOnlyUnderObservedKey(t *testing.T) {
	// A miss is stamped with the number of the plan it was ranked with under
	// the lock, never with anything its caller read before: an apply landing
	// between the look-up and the rank leaves the filed ranking standing and
	// the one ranked before the apply not.
	srv := NewServer(newTestSystem(t), Options{})
	applyCtx(t, srv, "u", "CtxA", 1)
	before, _, err := srv.rank("u", rankReq{target: "TvProgram", opts: contextrank.RankOptions{Limit: 3}})
	if err != nil || !srv.stands("u", before) {
		t.Fatalf("ranking just filed does not stand (err %v)", err)
	}
	rq := rankReq{target: "TvProgram"}
	if _, hit := srv.cached("u", &rq); hit {
		t.Fatal("hit on a request never ranked")
	}
	applyCtx(t, srv, "u", "CtxB", 1) // lands between the look-up and the rank
	if srv.stands("u", before) {
		t.Fatal("a ranking from before the apply still stands")
	}
	out := make([]RankItemResult, 1)
	if _, err := srv.rankMisses("u", []rankReq{rq}, out); err != nil || out[0].Err != nil {
		t.Fatal(err, out[0].Err)
	}
	e, ok := srv.plans.get("u")
	if !ok || out[0].ranked.planSeq != e.seq || e.seq == before.planSeq {
		t.Fatalf("ranked with plan %d, the cache holds %d (ok %v), before the apply %d", out[0].ranked.planSeq, e.seq, ok, before.planSeq)
	}
	filed, ok := srv.cache.get(rankKey("u", "TvProgram", contextrank.RankOptions{}))
	if !ok || filed.planSeq != e.seq || !srv.stands("u", filed) || len(filed.res) != len(out[0].Results) {
		t.Fatalf("filed ranking (ok %v, plan %d) does not stand on plan %d", ok, filed.planSeq, e.seq)
	}
}

func TestRankCacheErrorsNotCached(t *testing.T) {
	srv := NewServer(newTestSystem(t), Options{})
	for i := 0; i < 2; i++ {
		if _, meta, err := srv.Rank("u", "NoSuchConcept", contextrank.RankOptions{}); err == nil || meta.Cached {
			t.Fatalf("rank %d of an undeclared target: err %v cached %v", i, err, meta.Cached)
		}
	}
	if st := srv.Stats().Cache; st.Size != 0 || st.Misses != 2 || st.Hits != 0 {
		t.Fatalf("error was cached: %+v", st)
	}
}
