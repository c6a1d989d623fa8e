package serve

import (
	"container/list"
	"strconv"
	"sync"
	"sync/atomic"

	contextrank "repro"
)

// planCacheSize is the compiled-plan LRU capacity. Plans are per-user (not
// per-target), so a modest capacity covers many more distinct rank requests
// than the same number of rank-result entries.
const planCacheSize = 256

// planKey keys a user's compiled rank plan: (user, facade epoch). Every data,
// vocabulary and rule change is an Apply inside a facade write section that
// bumps the epoch, so the epoch alone pins the rule set and the data the
// plan compiled. What the key leaves out — the user's own context — is the
// entry's generation. The user is length-prefixed like rankKey's fields.
func planKey(user string, epoch int64) string {
	return strconv.Itoa(len(user)) + ":" + user + strconv.FormatInt(epoch, 10)
}

// planEntry is one user's cached compiled plan at one facade epoch.
type planEntry struct {
	key string
	// generation is the user's applied generation (see appliedContext) the
	// plan compiled at: the plan holds the user's context events by name, so
	// it answers for that apply only. A look-up at another generation
	// refreshes the plan and replaces it in place.
	generation int64
	plan       *contextrank.RankPlan
}

// planCache is an LRU of compiled rank plans, one entry per (user, facade
// epoch): 256 entries are 256 users, whatever the apply rate. A stale epoch
// makes its key unreachable, exactly like the rank-result cache, and LRU
// aging collects it; compiled plans are immutable and safe to share between
// concurrent rankers. Counters are atomics for the same reason as
// rankCache's: a stats scrape must never queue behind rank traffic holding
// the mutex. Server.planFor decides what a look-up counts as.
//
// The LRU machinery is deliberately not shared with rankCache: rankCache's
// eviction list must be mutated atomically with its singleflight map under
// one mutex ("cached? else in flight? else lead" is a single critical
// section), so extracting a self-locking LRU would either split that
// invariant across two locks or force the flight map into this cache,
// which has no flights.
type planCache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List               // front = most recently used
	items    map[string]*list.Element // key -> *planEntry element

	size      atomic.Int64
	hits      atomic.Int64
	misses    atomic.Int64
	evicted   atomic.Int64
	refreshed atomic.Int64
}

func newPlanCache() *planCache {
	return &planCache{
		capacity: planCacheSize,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
	}
}

// get returns the plan cached under key and the generation it compiled at,
// marking the entry most recently used.
func (c *planCache) get(key string) (plan *contextrank.RankPlan, generation int64, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, 0, false
	}
	c.ll.MoveToFront(el)
	ent := el.Value.(*planEntry)
	return ent.plan, ent.generation, true
}

// put files the plan under key, replacing the entry's previous plan in place
// or evicting from the LRU tail past capacity. Concurrent compiles of the
// same key are not coalesced (the compile runs under the facade read lock,
// where blocking peers on a cache-level flight would serialize the read
// path); the last writer wins and the duplicates are identical.
func (c *planCache) put(key string, generation int64, plan *contextrank.RankPlan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		ent := el.Value.(*planEntry)
		ent.generation, ent.plan = generation, plan
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&planEntry{key: key, generation: generation, plan: plan})
	for c.ll.Len() > c.capacity {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.items, back.Value.(*planEntry).key)
		c.evicted.Add(1)
	}
	c.size.Store(int64(c.ll.Len()))
}

// stats snapshots the counters without taking c.mu (reads are atomics and
// may be mutually inconsistent by a request; ratios do not care).
func (c *planCache) stats() CacheStats {
	s := CacheStats{
		Size:      int(c.size.Load()),
		Capacity:  c.capacity,
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evicted:   c.evicted.Load(),
		Refreshed: c.refreshed.Load(),
	}
	if total := s.Hits + s.Misses; total > 0 {
		s.HitRate = float64(s.Hits) / float64(total)
	}
	return s
}
