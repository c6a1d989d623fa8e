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
// version: entries filed at a version the state has left are never looked up
// again and age out of the LRU. The empty algorithm is normalized to the
// default so both spellings share one entry. Free-form fields are
// length-prefixed: a bare separator byte would let
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

// ranked is one served ranking together with what it stands on: the owner's
// state version it was ranked at and, for a target, the membership handle of
// the candidates it scored (nil for an explicit candidate list). The rank
// cache files it, rankMisses returns it per item and a subscription keeps the
// one it last pushed, and all three ask current the same question. The result
// slice is shared between every reader and must be treated as immutable.
//
// enc is the ranking's JSON results array as the handler writes it, made
// empty when rankMisses files the ranking and filled by its first cache hit
// (see appendResults); every copy the LRU hands out shares it, so every later
// hit writes the stored bytes. A ranking that is never hit keeps nothing, and
// one that is not filed has none.
type ranked struct {
	res     []contextrank.Result
	v       stateVersion
	members *contextrank.Membership
	enc     *atomic.Pointer[[]byte]
}

// current reports whether the ranking is still the one a fresh rank at now
// would return: the owner's version stands, and nobody's write has reached
// the target's members — which any user's apply to session vocabulary the
// target mentions does without moving the epoch or the owner's fingerprint.
// A few atomic loads.
func (r ranked) current(now stateVersion) bool {
	return r.v == now && (r.members == nil || r.members.Current())
}

// lru is a mutex-guarded least-recently-used map from string keys to V, the
// machinery under both the rank cache and the plan cache. It does not judge
// what a look-up was worth: callers count hits and misses.
//
// The counters (and the size mirror) are atomics rather than mu-guarded
// fields so stats() never touches mu: the mutex is contended by every rank
// request, and a /v1/stats scrape must not queue behind — or stall — rank
// traffic.
type lru[V any] struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List               // front = most recently used
	items    map[string]*list.Element // key -> *lruEntry[V] element

	size    atomic.Int64 // mirrors ll.Len(), maintained under mu
	hits    atomic.Int64
	misses  atomic.Int64
	evicted atomic.Int64
}

type lruEntry[V any] struct {
	key string
	val V
}

func (c *lru[V]) init(capacity int) {
	c.capacity, c.ll, c.items = capacity, list.New(), make(map[string]*list.Element)
}

// get returns a copy of key's value, marking it most recently used. It
// unlocks explicitly: this is every cached rank's critical section, and the
// deferred form measured ~50 ns (12 %) slower on
// BenchmarkServeRankCached/cached.
func (c *lru[V]) get(key string) (val V, ok bool) {
	c.mu.Lock()
	el, ok := c.items[key]
	if ok {
		c.ll.MoveToFront(el)
		val = el.Value.(*lruEntry[V]).val
	}
	c.mu.Unlock()
	return val, ok
}

// put files val under key, replacing the key's previous value in place or
// evicting from the tail past capacity.
func (c *lru[V]) put(key string, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry[V]).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&lruEntry[V]{key: key, val: val})
	for c.ll.Len() > c.capacity {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.items, back.Value.(*lruEntry[V]).key)
		c.evicted.Add(1)
	}
	c.size.Store(int64(c.ll.Len()))
}

// stats snapshots the counters without taking mu. The fields are read
// independently and may be mutually inconsistent by a request or two;
// effectiveness ratios do not care.
func (c *lru[V]) stats() CacheStats {
	s := CacheStats{
		Size:     int(c.size.Load()),
		Capacity: c.capacity,
		Hits:     c.hits.Load(),
		Misses:   c.misses.Load(),
		Evicted:  c.evicted.Load(),
	}
	s.HitRate = hitRate(s.Hits, s.Misses)
	return s
}

// rankCache is the LRU of served rankings, keyed by rankKey.
type rankCache struct{ lru[ranked] }

func newRankCache(capacity int) *rankCache {
	if capacity <= 0 {
		capacity = DefaultCacheSize
	}
	c := &rankCache{}
	c.init(capacity)
	return c
}

// lookup returns the ranking filed under key if it is current at now — the
// version the key was built from — counting the outcome. The read path
// (Server.rankMisses) files under the key it observed, which need not be the
// key anyone looked up.
func (c *rankCache) lookup(key string, now stateVersion) (ranked, bool) {
	if r, ok := c.get(key); ok && r.current(now) {
		c.hits.Add(1)
		return r, true
	}
	c.misses.Add(1)
	return ranked{}, false
}

// CacheStats is a point-in-time snapshot of cache effectiveness.
type CacheStats struct {
	Size     int     `json:"size"`
	Capacity int     `json:"capacity"`
	Hits     int64   `json:"hits"`
	Misses   int64   `json:"misses"`
	Evicted  int64   `json:"evicted"`
	HitRate  float64 `json:"hit_rate"`
	// Refreshed counts the misses that replaced a cached but stale plan,
	// not a user's first compile (plan cache only).
	Refreshed int64 `json:"refreshed,omitempty"`
}

// hitRate is the share of counted look-ups that hit.
func hitRate(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

func (s CacheStats) String() string {
	return fmt.Sprintf("size=%d/%d hits=%d misses=%d evicted=%d hit-rate=%.1f%%",
		s.Size, s.Capacity, s.Hits, s.Misses, s.Evicted, 100*s.HitRate)
}
