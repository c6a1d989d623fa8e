package serve

import (
	"container/list"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	contextrank "repro"
)

// DefaultCacheSize is the rank cache capacity when Options leaves it zero.
const DefaultCacheSize = 1024

// rankKey builds the cache key for one ranking request at one state
// version. The version's epoch makes every data mutation an implicit full
// invalidation (stale entries are never hit again and age out of the LRU);
// its fingerprint does the same per user for session context changes. The
// empty algorithm is normalized
// to the default so both spellings share one entry and coalesce.
// Free-form fields are length-prefixed: a bare separator byte would let
// values containing that byte collide across fields (JSON strings can
// carry any byte, including NUL).
func rankKey(user, target string, v stateVersion, opts contextrank.RankOptions) string {
	if opts.Algorithm == "" {
		opts.Algorithm = contextrank.AlgorithmFactorized
	}
	var b strings.Builder
	b.Grow(len(user) + len(target) + len(v.fp) + 64)
	field := func(s string) {
		b.WriteString(strconv.Itoa(len(s)))
		b.WriteByte(':')
		b.WriteString(s)
	}
	field(user)
	field(target)
	field(string(opts.Algorithm))
	field(v.fp)
	b.WriteString(strconv.FormatFloat(opts.Threshold, 'g', -1, 64))
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(opts.Limit))
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(opts.TopK))
	b.WriteByte('|')
	if opts.Explain {
		b.WriteByte('e')
	}
	b.WriteByte('|')
	b.WriteString(strconv.FormatInt(v.epoch, 10))
	return b.String()
}

// cacheEntry is one cached ranking together with the epoch it was computed
// at. The result slice is shared between all readers of the entry and must
// be treated as immutable. members is the target's membership handle the
// ranking scored: the key covers everything the scores depend on, but who the
// candidates are moves with any user's apply to session vocabulary the target
// mentions, which touches neither the epoch nor this user's fingerprint — so
// an entry is served only while its handle is current.
type cacheEntry struct {
	key     string
	res     []contextrank.Result
	epoch   int64
	members *contextrank.Membership
}

// lookupLocked returns key's entry, marked most recently used, if it is there
// and its target's members still are who they were: a few atomic loads.
// Caller holds c.mu.
func (c *rankCache) lookupLocked(key string) (*cacheEntry, bool) {
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	ent := el.Value.(*cacheEntry)
	if ent.members != nil && !ent.members.Current() {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return ent, true
}

// flight is one in-progress computation that concurrent identical misses
// wait on instead of recomputing (singleflight). epoch is the epoch the
// leader actually observed, so waiters report the truth about the result
// they share rather than their own pre-read.
type flight struct {
	wg    sync.WaitGroup
	res   []contextrank.Result
	epoch int64
	err   error
}

// rankCache is an LRU of rank results with singleflight miss coalescing.
//
// The effectiveness counters (and the size mirror) are atomics rather than
// mu-guarded fields so stats() never touches c.mu: the mutex is contended
// by every rank request, and a /v1/stats scrape must not queue behind —
// or stall — rank traffic.
type rankCache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List               // front = most recently used
	items    map[string]*list.Element // key -> *cacheEntry element
	flights  map[string]*flight

	size      atomic.Int64 // mirrors ll.Len(), maintained under c.mu
	hits      atomic.Int64
	misses    atomic.Int64
	coalesced atomic.Int64
	evicted   atomic.Int64
}

func newRankCache(capacity int) *rankCache {
	if capacity <= 0 {
		capacity = DefaultCacheSize
	}
	return &rankCache{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
		flights:  make(map[string]*flight),
	}
}

// get looks key up for a caller that computes its own misses (the batch
// path), marking a hit most recently used and counting either outcome.
func (c *rankCache) get(key string) ([]contextrank.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ent, ok := c.lookupLocked(key)
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return ent.res, true
}

// put files a computed result under key, with the epoch it was computed at
// and the target's membership handle it scored. The read path
// (Server.rankMisses) is the only caller: it stores under the key it
// observed, which need not be the key anyone looked up.
func (c *rankCache) put(key string, res []contextrank.Result, epoch int64, members *contextrank.Membership) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		ent := el.Value.(*cacheEntry)
		ent.res, ent.epoch, ent.members = res, epoch, members
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, res: res, epoch: epoch, members: members})
	for c.ll.Len() > c.capacity {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.items, back.Value.(*cacheEntry).key)
		c.evicted.Add(1)
	}
	c.size.Store(int64(c.ll.Len()))
}

// do returns the cached result for key or computes it once, coalescing
// concurrent identical misses onto a single computation.
//
// do never stores: compute files its result itself (put), under the key it
// actually observed, which differs from key when the state moved between the
// caller's look-up and the compute — so a result computed just after a
// mutation is never filed under the stale key. Waiters coalesced onto the
// flight receive the result directly and never re-consult the cache, so
// nothing is lost when the keys differ. The returned epoch always describes
// the result (for hits, the epoch the entry was computed at; for the leader
// and coalesced waiters, the one compute reports). Errors are returned to
// every coalesced caller.
func (c *rankCache) do(key string, compute func() (res []contextrank.Result, epoch int64, err error)) (res []contextrank.Result, epoch int64, cached bool, err error) {
	c.mu.Lock()
	if ent, ok := c.lookupLocked(key); ok {
		c.hits.Add(1)
		// Copy before unlocking: put may rewrite the entry in place under
		// c.mu, racing an unlocked field read.
		res, epoch := ent.res, ent.epoch
		c.mu.Unlock()
		return res, epoch, true, nil
	}
	if fl, ok := c.flights[key]; ok {
		c.coalesced.Add(1)
		c.mu.Unlock()
		fl.wg.Wait()
		return fl.res, fl.epoch, true, fl.err
	}
	fl := &flight{}
	fl.wg.Add(1)
	c.flights[key] = fl
	c.misses.Add(1)
	c.mu.Unlock()

	fl.res, fl.epoch, fl.err = compute()

	c.mu.Lock()
	delete(c.flights, key)
	c.mu.Unlock()
	fl.wg.Done()
	return fl.res, fl.epoch, false, fl.err
}

// CacheStats is a point-in-time snapshot of cache effectiveness.
type CacheStats struct {
	Size      int     `json:"size"`
	Capacity  int     `json:"capacity"`
	Hits      int64   `json:"hits"`
	Misses    int64   `json:"misses"`
	Coalesced int64   `json:"coalesced"`
	Evicted   int64   `json:"evicted"`
	HitRate   float64 `json:"hit_rate"`
	// Refreshed counts misses served by incrementally refreshing a
	// predecessor plan instead of a full recompile (plan cache only).
	Refreshed int64 `json:"refreshed,omitempty"`
}

// stats snapshots the counters without taking c.mu, so a stats scrape
// never queues behind rank traffic holding the cache mutex. The fields
// are read independently and may be mutually inconsistent by a request
// or two; effectiveness ratios do not care.
func (c *rankCache) stats() CacheStats {
	s := CacheStats{
		Size:      int(c.size.Load()),
		Capacity:  c.capacity,
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Coalesced: c.coalesced.Load(),
		Evicted:   c.evicted.Load(),
	}
	if total := s.Hits + s.Misses + s.Coalesced; total > 0 {
		s.HitRate = float64(s.Hits+s.Coalesced) / float64(total)
	}
	return s
}

// Merge sums two caches' counters — the shard coordinator uses it to
// aggregate per-shard caches — and recomputes the combined hit rate.
func (s CacheStats) Merge(o CacheStats) CacheStats {
	out := CacheStats{
		Size:      s.Size + o.Size,
		Capacity:  s.Capacity + o.Capacity,
		Hits:      s.Hits + o.Hits,
		Misses:    s.Misses + o.Misses,
		Coalesced: s.Coalesced + o.Coalesced,
		Evicted:   s.Evicted + o.Evicted,
		Refreshed: s.Refreshed + o.Refreshed,
	}
	if total := out.Hits + out.Misses + out.Coalesced; total > 0 {
		out.HitRate = float64(out.Hits+out.Coalesced) / float64(total)
	}
	return out
}

func (s CacheStats) String() string {
	return fmt.Sprintf("size=%d/%d hits=%d misses=%d coalesced=%d evicted=%d hit-rate=%.1f%%",
		s.Size, s.Capacity, s.Hits, s.Misses, s.Coalesced, s.Evicted, 100*s.HitRate)
}
