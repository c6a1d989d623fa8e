package serve

import (
	"container/list"
	"sync"
	"sync/atomic"

	contextrank "repro"
)

// planCacheSize is the compiled-plan LRU capacity. Plans are per-user (not
// per-target), so a modest capacity covers many more distinct rank requests
// than the same number of rank-result entries.
const planCacheSize = 256

// planEntry is one user's cached compiled plan.
type planEntry struct {
	user string
	// epoch is the facade epoch and generation the user's applied generation
	// (see appliedContext) the plan was brought up to date at. The epoch pins
	// what the plan cannot see for itself — the rule list, and another user's
	// apply reaching this user's contexts over a role edge; the generation
	// pins the user's own context events, which the plan holds by name. A
	// look-up at another epoch or generation, or one that finds a preference
	// membership written since (plan.Current), refreshes the plan and replaces
	// it in place.
	epoch      int64
	generation int64
	plan       *contextrank.RankPlan
}

// planCache is an LRU of compiled rank plans, one entry per user: 256
// entries are 256 users, whatever the write or apply rate. Compiled plans are
// immutable and safe to share between concurrent rankers. Counters are
// atomics for the same reason as rankCache's: a stats scrape must never queue
// behind rank traffic holding the mutex. Server.planFor decides what a
// look-up counts as.
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
	items    map[string]*list.Element // user -> *planEntry element

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

// get returns a copy of the user's entry, marking it most recently used.
func (c *planCache) get(user string) (planEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[user]
	if !ok {
		return planEntry{}, false
	}
	c.ll.MoveToFront(el)
	return *el.Value.(*planEntry), true
}

// put files the entry under its user, replacing the user's previous plan in
// place or evicting from the LRU tail past capacity. Concurrent compiles for
// one user are not coalesced (the compile runs under the facade read lock,
// where blocking peers on a cache-level flight would serialize the read
// path); the last writer wins and the duplicates are identical.
func (c *planCache) put(ent planEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[ent.user]; ok {
		*el.Value.(*planEntry) = ent
		c.ll.MoveToFront(el)
		return
	}
	c.items[ent.user] = c.ll.PushFront(&ent)
	for c.ll.Len() > c.capacity {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.items, back.Value.(*planEntry).user)
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
