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
	base := rankKey("u", "T", stateVersion{1, "fp"}, contextrank.RankOptions{})
	variants := []string{
		rankKey("v", "T", stateVersion{1, "fp"}, contextrank.RankOptions{}),
		rankKey("u", "S", stateVersion{1, "fp"}, contextrank.RankOptions{}),
		rankKey("u", "T", stateVersion{1, "fq"}, contextrank.RankOptions{}),
		rankKey("u", "T", stateVersion{2, "fp"}, contextrank.RankOptions{}),
		rankKey("u", "T", stateVersion{1, "fp"}, contextrank.RankOptions{Algorithm: contextrank.AlgorithmNaive}),
		rankKey("u", "T", stateVersion{1, "fp"}, contextrank.RankOptions{Threshold: 0.1}),
		rankKey("u", "T", stateVersion{1, "fp"}, contextrank.RankOptions{Limit: 5}),
		rankKey("u", "T", stateVersion{1, "fp"}, contextrank.RankOptions{Explain: true}),
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
	a := rankKey("a\x00b", "c", stateVersion{1, ""}, contextrank.RankOptions{})
	b := rankKey("a", "b\x00c", stateVersion{1, ""}, contextrank.RankOptions{})
	if a == b {
		t.Fatalf("cross-field collision: %q", a)
	}
	c := rankKey("u", "T\x001", stateVersion{1, ""}, contextrank.RankOptions{})
	d := rankKey("u", "T", stateVersion{1, "\x001"}, contextrank.RankOptions{})
	if c == d {
		t.Fatalf("target/fingerprint collision: %q", c)
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
	// A miss whose caller looked up under a version the state has since left
	// files the result only under the version it ranked at. The requested
	// key must stay empty: fingerprints round-trip, so an entry under the
	// stale key would later serve a wrong-context result as a hit.
	srv := NewServer(newTestSystem(t), Options{})
	applyCtx(t, srv, "u", "CtxA", 1)
	old, _ := srv.version("u")
	oldKey := rankKey("u", "TvProgram", old, contextrank.RankOptions{})
	if _, ok := srv.cache.lookup(oldKey, old); ok {
		t.Fatal("hit in an empty cache")
	}
	applyCtx(t, srv, "u", "CtxB", 1) // lands between the look-up and the rank
	out := make([]RankItemResult, 1)
	v, err := srv.rankMisses("u", []rankReq{{target: "TvProgram"}}, out)
	if err != nil || out[0].Err != nil {
		t.Fatal(err, out[0].Err)
	}
	if now, _ := srv.version("u"); v != now || v == old || out[0].ranked.v != v {
		t.Fatalf("ranked at %+v (item %+v), state is %+v, looked up at %+v", v, out[0].ranked.v, now, old)
	}
	if _, ok := srv.cache.lookup(oldKey, old); ok {
		t.Fatal("requested (stale) key was cached")
	}
	if r, ok := srv.cache.lookup(rankKey("u", "TvProgram", v, contextrank.RankOptions{}), v); !ok || len(r.res) != len(out[0].Results) {
		t.Fatal("observed key not cached")
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
