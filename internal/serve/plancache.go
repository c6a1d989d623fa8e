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

// planBaseKey is the identity under which successive context epochs'
// plans are predecessors of one another: (user, facade epoch). Every
// data, vocabulary and rule change is an Apply inside a facade write
// section that bumps the epoch, so the epoch alone pins the rule set the
// plan compiled. A cache miss at the full key probes this index for the
// user's latest plan at the same epoch and incrementally refreshes it
// instead of recompiling. The user is length-prefixed like rankKey's
// fields.
func planBaseKey(user string, epoch int64) string {
	return strconv.Itoa(len(user)) + ":" + user + strconv.FormatInt(epoch, 10)
}

// planKey keys one compiled rank plan: the base key plus the context
// epoch, which moves on every merged session apply (an apply retires and
// re-declares context events for *all* users, so the updated user's
// fingerprint alone would not be enough — see Sessions.ctxEpoch).
func planKey(baseKey string, ctxEpoch int64) string {
	return baseKey + "|" + strconv.FormatInt(ctxEpoch, 10)
}

// planEntry is one cached compiled plan.
type planEntry struct {
	key     string
	baseKey string
	plan    *contextrank.RankPlan
}

// planCache is an LRU of compiled rank plans. Invalidation is purely
// key-based (epochs and fingerprints make stale keys unreachable, exactly
// like the rank-result cache) plus LRU aging; compiled plans are immutable
// and safe to share between concurrent rankers. Counters are atomics for
// the same reason as rankCache's: a stats scrape must never queue behind
// rank traffic holding the mutex.
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
	latest   map[string]*list.Element // baseKey -> most recently added entry

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
		latest:   make(map[string]*list.Element),
	}
}

// get returns the cached plan for key, marking it most recently used.
func (c *planCache) get(key string) (*contextrank.RankPlan, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.hits.Add(1)
	return el.Value.(*planEntry).plan, true
}

// getLatest returns the most recently added live plan under the base key
// (user, facade epoch) regardless of context epoch — the predecessor an
// incremental refresh starts from.
func (c *planCache) getLatest(baseKey string) (*contextrank.RankPlan, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.latest[baseKey]
	if !ok {
		return nil, false
	}
	return el.Value.(*planEntry).plan, true
}

// add inserts the plan under key, evicting from the LRU tail past
// capacity. Concurrent compiles of the same key are not coalesced (the
// compile runs under the facade read lock, where blocking peers on a
// cache-level flight would serialize the read path); the last writer wins
// and the duplicates are identical.
func (c *planCache) add(key, baseKey string, plan *contextrank.RankPlan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*planEntry).plan = plan
		c.ll.MoveToFront(el)
		c.latest[baseKey] = el
		return
	}
	el := c.ll.PushFront(&planEntry{key: key, baseKey: baseKey, plan: plan})
	c.items[key] = el
	c.latest[baseKey] = el
	for c.ll.Len() > c.capacity {
		back := c.ll.Back()
		c.ll.Remove(back)
		ent := back.Value.(*planEntry)
		delete(c.items, ent.key)
		if c.latest[ent.baseKey] == back {
			delete(c.latest, ent.baseKey)
		}
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
