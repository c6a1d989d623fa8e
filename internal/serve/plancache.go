package serve

import (
	"sync/atomic"

	contextrank "repro"
)

// planCacheSize is the least compiled-plan LRU capacity, and its capacity
// when the rank cache is disabled; otherwise it holds as many users as the
// rank cache holds rankings (see NewServer).
const planCacheSize = 256

// planEntry is one user's cached compiled plan, with the facade's context
// generation and the user's applied generation its context half was resolved
// at (see Server.planFor, which decides what a look-up counts as), and its
// number, by which a ranking names the plan it was scored with. A plan
// compiled keeping its predecessor's context half keeps the predecessor and
// its number too: the rankings scored with it are revalidated against it
// (Server.revalidate). A ranking holds only the number, so a filed ranking
// nobody asks for again keeps no plan alive.
type planEntry struct {
	contextGen int64
	generation int64
	plan       *contextrank.RankPlan
	seq        uint64
	prev       *contextrank.RankPlan
	prevSeq    uint64
}

// resolvedAt reports whether e's context half was resolved at the context
// generation and applied generation given.
func (e planEntry) resolvedAt(contextGen, generation int64) bool {
	return e.contextGen == contextGen && e.generation == generation
}

// holds reports whether e's plan scores the state at the context generation
// and applied generation given: its context half was resolved at both, and no
// table a rule's preference reads has been written since (Plan.Current).
// planFor serves the plan on it, and Server.stands a ranking scored with it.
func (e planEntry) holds(contextGen, generation int64) bool {
	return e.resolvedAt(contextGen, generation) && e.plan.Current()
}

// planCache is the LRU of compiled rank plans, one entry per user: n entries
// are n users, whatever the write or apply rate. Compiled plans are
// immutable and safe to share between concurrent rankers. Concurrent compiles
// for one user are not serialized (the compile runs under the facade read
// lock); the first to file wins (see file), so every ranking scored with a
// plan of that snapshot names the one plan the cache holds.
type planCache struct {
	lru[planEntry]
	// refreshed counts the misses that replaced a cached but stale plan.
	refreshed atomic.Int64
	// seq numbers the compiled plans, from 1.
	seq atomic.Uint64
}

// file files e under user when the entry there is still the one the caller
// read — its number read, 0 when there was none — and returns e; otherwise a
// concurrent compile filed first, and it returns that entry, unchanged.
func (c *planCache) file(user string, read uint64, e planEntry) planEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[user]; ok {
		if cur := el.Value.(*lruEntry[planEntry]).val; cur.seq != read {
			return cur
		}
	}
	c.store(user, e)
	return e
}

func (c *planCache) stats() CacheStats {
	s := c.lru.stats()
	s.Refreshed = c.refreshed.Load()
	return s
}
