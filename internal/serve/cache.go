package serve

import (
	"container/list"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	contextrank "repro"
)

// DefaultCacheSize is the rank cache capacity when Options leaves it zero.
const DefaultCacheSize = 1024

// rankKey builds the cache key for one factorized ranking request: the user,
// the target and the result shaping. Nothing of the state is in it — what a
// filed ranking stands on is its plan number (see Server.stands) — so a write
// leaves the key where it was, and the entry filed under it is either served
// again, as it stands or revalidated (see Server.revalidate), or replaced by
// the rank that follows. Only factorized rankings are filed, so the algorithm
// is not part of it either. Free-form fields are length-prefixed: a bare
// separator byte would let values containing that byte collide across fields
// (JSON strings can carry any byte, including NUL).
func rankKey(user, target string, opts contextrank.RankOptions) string {
	var b strings.Builder
	b.Grow(len(user) + len(target) + 40)
	field := func(s string) {
		b.WriteString(strconv.Itoa(len(s)))
		b.WriteByte(':')
		b.WriteString(s)
	}
	field(user)
	field(target)
	b.WriteString(strconv.FormatFloat(opts.Threshold, 'g', -1, 64))
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(opts.Limit))
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(opts.TopK))
	b.WriteByte('|')
	if opts.Explain {
		b.WriteByte('e')
	}
	return b.String()
}

// ranked is one served ranking together with what it stands on: the number of
// the plan it was scored with (planEntry; 0 when it stands on nothing — a
// naive rank, or a failed one) and, for a target, the membership handle of
// the candidates it scored (nil for an explicit candidate list). The rank
// cache files it, rankMisses returns it per item and a subscription keeps the
// one it last pushed, and all three ask Server.stands the same question. The
// result slice is shared between every reader and must be treated as
// immutable. epoch is the facade epoch it was served at, only ever reported
// (RankMeta, subscription events).
//
// enc is the ranking's JSON results array as the handler writes it, made
// empty when rankMisses files the ranking and filled by its first cache hit
// (see appendResults); every copy the LRU hands out shares it, so every later
// hit writes the stored bytes. A ranking that is never hit keeps nothing, and
// one that is not filed has none.
type ranked struct {
	res     []contextrank.Result
	members *contextrank.Membership
	enc     *atomic.Pointer[[]byte]
	planSeq uint64
	epoch   int64
}

// stands reports whether r is still the ranking a fresh rank of its request
// for user would return. The paper scores each candidate on its own, as a
// function of the user's rules, context and the candidate's preference
// memberships (DESIGN §1), and a compiled plan is that function, so r stands
// while its plan does: the user's plan-cache entry is the one r was scored
// with — a write that reaches the user's context forgets the entry, so a
// cached entry's context half is exact — no table a rule's preference reads
// has been written since (Plan.Current), and nobody's write has reached the
// target's members, which any user's apply to session vocabulary the target
// mentions does without reaching this user's context. A rank-cache hit, a
// subscription skip and checkReuse all ask it. Lock-free: atomic loads and
// the plan LRU's mutex. An entry, once forgotten, never comes back — plan
// numbers are never reused — and table versions only move forward, so parts
// read at different instants that all still hold held together at the first
// of them.
func (s *Server) stands(user string, r ranked) bool {
	e, ok := s.plans.get(user)
	return ok && e.seq == r.planSeq && e.plan.Current() &&
		(r.members == nil || r.members.Current())
}

// checkReuse re-ranks rq for user from scratch under the facade read lock and
// panics unless r, the ranking a cache hit or the subscription evaluator
// reused, is the same bit for bit — the carverify build's check (verifyReuse),
// which every test then runs at every reuse. It compares nothing when r no
// longer stands by the time the lock is held.
func (s *Server) checkReuse(site, user string, rq rankReq, r ranked) {
	_ = s.facade.WithRead(func(sys *contextrank.System) error {
		if s.stands(user, r) {
			s.checkReuseLocked(sys, site, user, rq, r)
		}
		return nil
	})
}

// checkReuseLocked is checkReuse for a caller holding the read lock, with r
// standing.
func (s *Server) checkReuseLocked(sys *contextrank.System, site, user string, rq rankReq, r ranked) {
	var (
		fresh []contextrank.Result
		err   error
	)
	if rq.candidates != nil {
		fresh, err = sys.RankCandidates(user, nil, rq.candidates, rq.opts)
	} else {
		fresh, _, err = sys.RankTarget(user, nil, rq.target, rq.opts)
	}
	if err == nil && slices.EqualFunc(fresh, r.res, func(a, b contextrank.Result) bool {
		return a.ID == b.ID && math.Float64bits(a.Score) == math.Float64bits(b.Score)
	}) {
		return
	}
	panic(fmt.Sprintf("serve: %s for %s (target %q, %+v) served %v, a fresh rank gives %v (err %v)",
		site, user, rq.target, rq.opts, r.res, fresh, err))
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
	c.store(key, val)
}

// store is put for a caller holding mu.
func (c *lru[V]) store(key string, val V) {
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
type rankCache struct {
	lru[ranked]
	// revalidated counts the hits that rankMisses served by re-scoring only
	// what a write moved (see Server.revalidate).
	revalidated atomic.Int64
}

func newRankCache(capacity int) *rankCache {
	if capacity <= 0 {
		capacity = DefaultCacheSize
	}
	c := &rankCache{}
	c.init(capacity)
	return c
}

func (c *rankCache) stats() CacheStats {
	s := c.lru.stats()
	s.Revalidated = c.revalidated.Load()
	return s
}

// CacheStats is a point-in-time snapshot of cache effectiveness.
type CacheStats struct {
	Size     int     `json:"size"`
	Capacity int     `json:"capacity"`
	Hits     int64   `json:"hits"`
	Misses   int64   `json:"misses"`
	Evicted  int64   `json:"evicted"`
	HitRate  float64 `json:"hit_rate"`
	// Refreshed counts the misses that kept the user's cached context half
	// and compiled only the preference half again, not a first compile
	// (plan cache only).
	Refreshed int64 `json:"refreshed,omitempty"`
	// Revalidated counts the hits served against the plan a refresh
	// replaced, by re-scoring only the candidates the write moved (rank
	// cache only).
	Revalidated int64 `json:"revalidated,omitempty"`
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
