package serve

import (
	"sync"
	"sync/atomic"
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
	fill := func(key string, ids ...string) { c.put(key, res(ids...), 1, nil) }
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

func TestRankCacheSingleflightCoalesces(t *testing.T) {
	c := newRankCache(8)
	var computes atomic.Int64
	gate := make(chan struct{})
	entered := make(chan struct{})

	const waiters = 9
	var wg sync.WaitGroup
	results := make([][]contextrank.Result, waiters+1)
	launch := func(i int) {
		defer wg.Done()
		r, epoch, _, err := c.do("k", func() ([]contextrank.Result, int64, error) {
			computes.Add(1)
			close(entered)
			<-gate
			return res("only"), 42, nil
		})
		if epoch != 42 {
			t.Errorf("caller %d reported epoch %d, want the leader's 42", i, epoch)
		}
		if err != nil {
			t.Error(err)
		}
		results[i] = r
	}
	wg.Add(1)
	go launch(0)
	<-entered // leader is inside compute; everyone else must coalesce
	for i := 1; i <= waiters; i++ {
		wg.Add(1)
		go launch(i)
	}
	// Wait until all waiters are registered on the flight before releasing.
	for c.coalesced.Load() != waiters {
	}
	close(gate)
	wg.Wait()

	if got := computes.Load(); got != 1 {
		t.Fatalf("compute ran %d times, want 1", got)
	}
	for i, r := range results {
		if len(r) != 1 || r[0].ID != "only" {
			t.Fatalf("caller %d got %v", i, r)
		}
	}
	st := c.stats()
	if st.Coalesced != waiters || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRankCacheStoresOnlyUnderObservedKey(t *testing.T) {
	// A leader that observes a newer epoch/fingerprint files the result
	// only under the key it actually computed at — do itself stores
	// nothing. The requested key must stay empty: fingerprints round-trip,
	// so an entry under the stale key would later serve a wrong-context
	// result as a hit.
	c := newRankCache(8)
	got, epoch, cached, err := c.do("old", func() ([]contextrank.Result, int64, error) {
		c.put("new", res("r"), 2, nil)
		return res("r"), 2, nil
	})
	if err != nil || cached || epoch != 2 || len(got) != 1 {
		t.Fatalf("leader got (%v, epoch %d, cached %v, err %v)", got, epoch, cached, err)
	}
	if _, ok := c.get("old"); ok {
		t.Fatal("requested (stale) key was cached")
	}
	if _, _, cached, _ := c.do("new", nil); !cached {
		t.Fatal("observed key not cached")
	}
}

func TestRankCacheErrorsNotCached(t *testing.T) {
	c := newRankCache(8)
	calls := 0
	fail := func() ([]contextrank.Result, int64, error) {
		calls++
		return nil, 0, errTest
	}
	if _, _, _, err := c.do("k", fail); err != errTest {
		t.Fatalf("err = %v", err)
	}
	if _, _, _, err := c.do("k", fail); err != errTest {
		t.Fatalf("err = %v", err)
	}
	if calls != 2 {
		t.Fatalf("compute ran %d times, want 2 (errors must not cache)", calls)
	}
	if st := c.stats(); st.Size != 0 {
		t.Fatalf("error was cached: %+v", st)
	}
}

var errTest = errTestType{}

type errTestType struct{}

func (errTestType) Error() string { return "test error" }
