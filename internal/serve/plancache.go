package serve

import (
	"sync/atomic"

	contextrank "repro"
)

// planCacheSize is the least compiled-plan LRU capacity, and its capacity
// when the rank cache is disabled; otherwise it holds as many users as the
// rank cache holds rankings (see NewServer).
const planCacheSize = 256

// planEntry is one user's cached compiled plan and its number, by which a
// ranking names the plan it was scored with. Its context half is exact while
// it is cached: a write that can reach the user's context rows forgets the
// entry (planCache.forget) inside its write section. A plan compiled keeping
// its predecessor's context half keeps the predecessor and its number too:
// the rankings scored with it are revalidated against it (Server.revalidate).
// A ranking holds only the number, so a filed ranking nobody asks for again
// keeps no plan alive.
type planEntry struct {
	plan    *contextrank.RankPlan
	seq     uint64
	prev    *contextrank.RankPlan
	prevSeq uint64
}

// planCache is the LRU of compiled rank plans, one entry per user: n entries
// are n users, whatever the write or apply rate. Compiled plans are
// immutable and safe to share between concurrent rankers. Concurrent compiles
// for one user are not serialized (the compile runs under the facade read
// lock); the first to file wins (see file), so every ranking scored with a
// plan of that snapshot names the one plan the cache holds.
type planCache struct {
	lru[planEntry]
	// refreshed counts the misses that kept the user's context half: the
	// entry was cached, but a table a rule's preference reads was written.
	refreshed atomic.Int64
	// seq numbers the compiled plans, from 1; a number is never reused.
	seq atomic.Uint64
}

// forget removes the users' entries, or every entry when users is nil. A
// write calls it under the facade write lock for the plans whose context half
// it can reach, so the next look-up of such a user is a first compile.
func (c *planCache) forget(users ...string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if users == nil {
		c.ll.Init()
		clear(c.items)
	}
	for _, user := range users {
		if el, ok := c.items[user]; ok {
			c.ll.Remove(el)
			delete(c.items, user)
		}
	}
	c.size.Store(int64(c.ll.Len()))
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
