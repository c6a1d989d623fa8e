package serve

import (
	"sync/atomic"

	contextrank "repro"
)

// planCacheSize is the compiled-plan LRU capacity. Plans are per-user (not
// per-target), so a modest capacity covers many more distinct rank requests
// than the same number of rank-result entries.
const planCacheSize = 256

// planEntry is one user's cached compiled plan, with the facade's context
// generation and the user's applied generation its context half was resolved
// at (see Server.planFor, which decides what a look-up counts as).
type planEntry struct {
	contextGen int64
	generation int64
	plan       *contextrank.RankPlan
}

// planCache is the LRU of compiled rank plans, one entry per user: 256
// entries are 256 users, whatever the write or apply rate. Compiled plans are
// immutable and safe to share between concurrent rankers. Concurrent compiles
// for one user are not serialized (the compile runs under the facade read
// lock); the last writer wins and the duplicates are identical.
type planCache struct {
	lru[planEntry]
	// refreshed counts the misses that replaced a cached but stale plan.
	refreshed atomic.Int64
}

func newPlanCache() *planCache {
	c := &planCache{}
	c.init(planCacheSize)
	return c
}

func (c *planCache) stats() CacheStats {
	s := c.lru.stats()
	s.Refreshed = c.refreshed.Load()
	return s
}
