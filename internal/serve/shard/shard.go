// Package shard is the sharded serving layer: a Coordinator owns N
// independent serve.Server replicas — each with its own contextrank.System,
// session manager, rank cache and lock — and routes every per-user
// operation (session applies, ranks) to one shard by consistent hash of
// the user ID. A context apply on shard 3 therefore never blocks a rank on
// shard 7: the single writer lock of the unsharded layer becomes N
// independent locks, and aggregate throughput under a mixed apply+rank
// workload scales with the shard count (see carbench -exp serve -shards).
//
// Shared vocabulary — schema declares, data assertions, preference rules,
// SQL DML — is *broadcast*: applied to every shard in parallel, so each
// shard holds a full replica of the non-session state and can rank any
// user routed to it. Consistency caveats of that design are documented on
// Coordinator; DESIGN.md §3.5 has the architecture discussion.
package shard

import (
	"fmt"
	"hash/fnv"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	contextrank "repro"
	"repro/internal/faultinject"
	"repro/internal/serve"
	"repro/internal/serve/journal"
)

// Coordinator routes serving traffic across N shard replicas. It
// implements serve.Backend, so serve.NewHandlerFor exposes the identical
// HTTP API over it.
//
// # Consistency
//
//   - Per-user state (sessions, cached rankings) lives only on the user's
//     shard; routing is a pure function of (user, N), so a user always
//     observes their own updates.
//   - Broadcast writes are applied to all shards in parallel without a
//     commit protocol. On error the failing shards report it and the
//     others keep the write: shards can diverge until the next successful
//     broadcast of the same fact (all broadcast operations are
//     assert-style and idempotent at the vocabulary level) or a restore
//     from snapshot. The first error is returned to the caller.
//   - Read-only SQL queries are served by one non-quarantined shard
//     chosen round-robin. Replicated data is identical everywhere, but
//     session-context assertions are shard-local: a query over context
//     concepts sees only the chosen shard's sessions. Use per-user
//     endpoints for session-coupled reads.
type Coordinator struct {
	// Mutators are serve.Backend's typed write methods, record builders
	// over Apply — the same ones serve.Server embeds.
	serve.Mutators

	shards []*serve.Server
	start  time.Time
	rr     atomic.Int64 // round-robin cursor for shard-agnostic reads

	// journals are the per-shard WALs opened by Recover (index = shard
	// id; nil when the coordinator runs without durability). Owned here
	// for CloseJournals; the per-shard appends go through each server.
	journals []*journal.Journal
	// journalGen is the generation id of the open journals ("" without
	// durability). Snapshot manifests record it so recovery can pair
	// checkpoint coverage with the right WAL files.
	journalGen string
	// journalDir is the WAL directory Recover ran against; quarantine
	// repair replays a healthy shard's WAL from it.
	journalDir string
	// fs is the filesystem seam the journals were opened with (OSFS
	// outside fault-injection runs); manifest switches route through it
	// so injected rename/write faults reach them too.
	fs journal.FS

	// quar is the quarantine domain (see quarantine.go); quarAfter is
	// the armed consecutive-failure threshold (0 = quarantining off).
	quar      quarState
	quarAfter atomic.Int64
	// chaos is the optional fault injector for the rank and broadcast
	// paths (nil = disabled; one atomic load per operation).
	chaos atomic.Pointer[faultinject.Injector]

	// bcastGate orders broadcasts against checkpoints: every broadcast
	// holds the read side for its whole apply+journal span, and
	// Checkpoint holds the write side across all shards' snapshot cuts.
	// The cuts therefore share one broadcast frontier — a broadcast is
	// either in every shard's snapshot or in none — which is what lets
	// recovery skip checkpoint-covered records by BID without risking a
	// half-covered write.
	bcastGate sync.RWMutex
	// bid numbers broadcast writes; every shard journals the same
	// broadcast with the same BID, so recovery applies each one exactly
	// once even though N WALs carry a copy. Recover seeds it past the
	// highest replayed BID.
	bid atomic.Uint64

	// Broadcast-write latency: total wall time (slowest shard) per write.
	bcastWrites atomic.Int64
	bcastSumNs  atomic.Int64
	bcastMaxNs  atomic.Int64

	// Background-checkpoint counters (see Checkpoint/StartCheckpointer).
	ckptCount     atomic.Int64
	ckptFailures  atomic.Int64
	ckptLastUnix  atomic.Int64
	ckptLastDurUs atomic.Int64
	ckptLastSeq   atomic.Uint64

	// recovery is the boot-time replay outcome, attached to Stats once.
	recovery atomic.Pointer[serve.RecoveryStats]
}

var _ serve.Backend = (*Coordinator)(nil)

// New builds a coordinator over n fresh shards. build constructs shard
// i's System (e.g. preloading a dataset, or restoring a snapshot); it is
// called once per shard, in order.
func New(n int, build func(shard int) (*contextrank.System, error), opts serve.Options) (*Coordinator, error) {
	if n <= 0 {
		return nil, fmt.Errorf("shard: need at least 1 shard, got %d", n)
	}
	c := &Coordinator{shards: make([]*serve.Server, n), start: time.Now()}
	c.Mutators = serve.MutatorsOver(c)
	c.quar.init(n)
	for i := 0; i < n; i++ {
		sys, err := build(i)
		if err != nil {
			return nil, fmt.Errorf("shard: building shard %d: %w", i, err)
		}
		c.shards[i] = serve.NewServer(sys, opts)
	}
	return c, nil
}

// N returns the shard count.
func (c *Coordinator) N() int { return len(c.shards) }

// Shard returns shard i's server, for direct (test/diagnostic) access.
func (c *Coordinator) Shard(i int) *serve.Server { return c.shards[i] }

// ShardFor returns the shard index serving the given user.
func (c *Coordinator) ShardFor(user string) int {
	return ShardIndex(user, len(c.shards))
}

// ShardIndex is the routing function: FNV-64a of the user ID fed through
// Lamping–Veach jump consistent hashing. It is a pure function of (user,
// shards) — the same user always lands on the same shard for a fixed
// count — and growing the count from n to n+1 moves only ~1/(n+1) of the
// users, so resharding invalidates the minimum of per-shard state.
func ShardIndex(user string, shards int) int {
	h := fnv.New64a()
	h.Write([]byte(user))
	return jumpHash(h.Sum64(), shards)
}

// jumpHash is Lamping & Veach's jump consistent hash ("A Fast, Minimal
// Memory, Consistent Hash Algorithm", 2014): O(ln buckets), no memory,
// minimal key movement between bucket counts.
func jumpHash(key uint64, buckets int) int {
	var b, j int64 = -1, 0
	for j < int64(buckets) {
		b = j
		key = key*2862933555777941757 + 1
		j = int64(float64(b+1) * (float64(int64(1)<<31) / float64((key>>33)+1)))
	}
	return int(b)
}

// --- routed per-user operations --------------------------------------------

// rankShard picks the shard that ranks for the user — the home shard or,
// while that is quarantined, its healthy stand-in — and fires the rank fault
// point on it.
func (c *Coordinator) rankShard(user string) (int, error) {
	i := c.routeFor(user)
	if in := c.chaos.Load(); in != nil {
		return i, in.Fire(faultinject.RankServe, i)
	}
	return i, nil
}

// Rank routes the rank to the user's shard (see rankShard); the returned
// meta carries the shard index that served it.
func (c *Coordinator) Rank(user, target string, opts contextrank.RankOptions) ([]contextrank.Result, serve.RankMeta, error) {
	i, err := c.rankShard(user)
	if err != nil {
		return nil, serve.RankMeta{Shard: i}, err
	}
	res, meta, err := c.shards[i].Rank(user, target, opts)
	meta.Shard = i
	return res, meta, err
}

// RankBatch routes the whole batch to the user's shard — one hop, one
// consistent snapshot and one compiled rank plan for every item.
func (c *Coordinator) RankBatch(user string, alg contextrank.Algorithm, items []serve.RankItem) ([]serve.RankItemResult, serve.RankMeta, error) {
	i, err := c.rankShard(user)
	if err != nil {
		return nil, serve.RankMeta{Shard: i}, err
	}
	res, meta, err := c.shards[i].RankBatch(user, alg, items)
	meta.Shard = i
	return res, meta, err
}

// SessionInfo reads the user's session from whatever shard currently
// serves the user (the stand-in while the home shard is quarantined).
func (c *Coordinator) SessionInfo(user string) ([]serve.Measurement, string, bool) {
	return c.shards[c.routeFor(user)].SessionInfo(user)
}

// --- the mutation path ------------------------------------------------------

// Apply is the coordinator's one mutation entry, the routing twin of
// serve.Server.Apply: it never changes state itself, it decides which
// shard(s) apply the record. Live traffic (through the embedded typed
// Mutators) and boot replay (Recover) both feed it.
//
//   - Vocabulary records are broadcast: an untagged one (live traffic, or
//     unsharded-server history) takes the gate, the degraded pre-check and
//     a fresh broadcast id; one already carrying a BID is a replay and is
//     re-applied under it.
//   - Set/Drop/Subscribe go to the owner's shard (see applyRouted).
//   - Unsubscribe goes to the shard holding the id. There is no id→shard
//     map — ids are client-chosen or minted per subscribe — so the lookup
//     scans each shard's registry; an unknown id is not-found without
//     journaling anything (the per-shard resurrection guard only matters
//     when the shard itself applied a removal, and then that shard's own
//     Apply journals it).
func (c *Coordinator) Apply(rec journal.Record) (serve.Applied, error) {
	switch {
	case rec.Op.IsVocab() && rec.BID == 0:
		return c.broadcast(rec)
	case rec.Op.IsVocab():
		return c.broadcastBID(rec)
	case rec.Op == journal.OpSet, rec.Op == journal.OpDrop, rec.Op == journal.OpSubscribe:
		return c.applyRouted(rec)
	case rec.Op == journal.OpUnsubscribe:
		for _, s := range c.shards {
			for _, info := range s.Subscriptions() {
				if info.ID == rec.SubID {
					return s.Apply(rec)
				}
			}
		}
		return serve.Applied{}, nil
	default:
		return serve.Applied{}, fmt.Errorf("%w %d", serve.ErrUnknownOp, rec.Op)
	}
}

// applyRouted applies a per-user record on the user's shard only — the
// apply and its write lock are shard-local, and a subscription's
// repeated re-rank shares the user's session, rank cache and compiled
// plans. While the home shard is quarantined the record lands on its
// healthy stand-in and the user is recorded for migration back at repair
// time (kept on a drop too: the home shard may hold a stale
// pre-quarantine session that repair must clear); the recording is
// serialized with the repair's migration sweep under quar.mu, so a
// session can never fall between the two.
func (c *Coordinator) applyRouted(rec journal.Record) (serve.Applied, error) {
	home := ShardIndex(rec.User, len(c.shards))
	at := home
	if c.quar.mask.Load()&maskBit(home) != 0 {
		c.quar.mu.Lock()
		defer c.quar.mu.Unlock()
		// Re-check: the shard may have been repaired before the lock.
		if mask := c.quar.mask.Load(); mask&maskBit(home) != 0 {
			at = rerouteIndex(rec.User, mask, len(c.shards))
		}
	}
	out, err := c.shards[at].Apply(rec)
	out.Sub.Shard = at
	if err == nil && at != home {
		c.quar.rerouted[rec.User] = home
	}
	return out, err
}

// Subscriptions lists every shard's subscriptions, tagging each with the
// shard currently holding it.
func (c *Coordinator) Subscriptions() []serve.SubscriptionInfo {
	var out []serve.SubscriptionInfo
	for i, s := range c.shards {
		for _, info := range s.Subscriptions() {
			info.Shard = i
			out = append(out, info)
		}
	}
	return out
}

// SubscriptionStream attaches the event consumer to a subscription on
// whichever shard holds it.
func (c *Coordinator) SubscriptionStream(id string) (*serve.SubStream, error) {
	for _, s := range c.shards {
		for _, info := range s.Subscriptions() {
			if info.ID == id {
				return s.SubscriptionStream(id)
			}
		}
	}
	return nil, fmt.Errorf("serve: no subscription %q", id)
}

// --- broadcast writes ------------------------------------------------------

// broadcast assigns the record a fresh broadcast id and applies it to
// every shard in parallel, holding the broadcast gate's read side for the
// whole span so a concurrent Checkpoint (which takes the write side)
// observes the write on either every shard or none.
func (c *Coordinator) broadcast(rec journal.Record) (serve.Applied, error) {
	c.bcastGate.RLock()
	defer c.bcastGate.RUnlock()
	// Degraded pre-check, before a BID is assigned or any shard applies:
	// a degraded shard would apply the write in memory but fail to
	// journal it, and the divergence rules below would then quarantine a
	// shard whose only problem is its disk. Rejecting the whole write up
	// front keeps the replicas bit-identical — the caller sees 503 +
	// Retry-After and the disk probe re-arms the journal in background.
	mask := c.quar.mask.Load()
	for i, s := range c.shards {
		if mask&maskBit(i) != 0 {
			continue
		}
		if s.Degraded() {
			return serve.Applied{}, fmt.Errorf("shard %d: %w", i, serve.ErrDegraded)
		}
	}
	rec.BID = c.bid.Add(1)
	return c.broadcastBID(rec)
}

// broadcastBID is broadcast's body for a record that already carries its
// broadcast id: every shard journals the same record under the same BID,
// so each shard's WAL is an independently replayable full log. Recovery
// reaches it directly to re-apply a journaled broadcast under its
// original BID (no gate needed: replay runs before traffic). It records
// the write's wall time (the slowest shard) and returns the outcome of
// the lowest shard still in service after the write — parsing and
// replicated data are deterministic, so every healthy shard derives the
// same rule names and result set — carrying the highest resulting epoch,
// together with the first error in shard order. (An uncertain assertion
// declares an independent fresh basic event per shard; the marginal
// probability every shard computes is identical, so rankings agree across
// shards even though the event names differ.)
//
// Quarantined shards are skipped — repair replays what they miss from a
// healthy WAL. Each shard's apply runs behind a recover barrier: a panic
// inside one shard's engine becomes that shard's error (counted in
// carserve_panics_total) instead of killing the daemon, and with a
// quarantine threshold armed, a shard that keeps failing while the rest
// succeed is fenced off and its error absorbed.
func (c *Coordinator) broadcastBID(rec journal.Record) (serve.Applied, error) {
	started := time.Now()
	mask := c.quar.mask.Load()
	outs := make([]serve.Applied, len(c.shards))
	errs := make([]error, len(c.shards))
	var wg sync.WaitGroup
	for i := range c.shards {
		if mask&maskBit(i) != 0 {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					serve.NotePanic()
					errs[i] = fmt.Errorf("panic: %v", r)
				}
			}()
			if in := c.chaos.Load(); in != nil {
				if err := in.Fire(faultinject.BroadcastApply, i); err != nil {
					errs[i] = err
					return
				}
			}
			outs[i], errs[i] = c.shards[i].Apply(rec)
		}(i)
	}
	wg.Wait()
	c.observeBroadcast(time.Since(started))

	var out serve.Applied
	var epoch int64
	var firstErr error
	chosen := false
	for i, err := range errs {
		if mask&maskBit(i) != 0 {
			continue
		}
		epoch = max(epoch, outs[i].Epoch)
		if c.noteBroadcastResult(i, rec.BID, err) {
			continue // shard quarantined; the write is durable on the rest
		}
		if !chosen {
			out, chosen = outs[i], true
		}
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("shard %d: %w", i, err)
		}
	}
	out.Epoch = epoch
	return out, firstErr
}

func (c *Coordinator) observeBroadcast(d time.Duration) {
	ns := int64(d)
	c.bcastWrites.Add(1)
	c.bcastSumNs.Add(ns)
	for {
		cur := c.bcastMaxNs.Load()
		if ns <= cur || c.bcastMaxNs.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// --- shard-agnostic reads --------------------------------------------------

// Rules snapshots the registered rules from the lowest non-quarantined
// replica (rules are broadcast, so all healthy shards agree after any
// successful AddRules; a fenced replica may have missed writes).
func (c *Coordinator) Rules() []contextrank.Rule {
	return c.shards[nthHealthy(0, c.quar.mask.Load(), len(c.shards))].Rules()
}

// Query serves a read-only SELECT from one non-quarantined shard, chosen
// round-robin. Replicated data is identical on every healthy shard;
// session-context assertions are shard-local (see the Coordinator
// consistency notes).
func (c *Coordinator) Query(stmt string) (*contextrank.QueryResult, error) {
	mask := c.quar.mask.Load()
	healthy := len(c.shards) - bits.OnesCount64(mask)
	k := int(uint64(c.rr.Add(1)-1) % uint64(healthy))
	return c.shards[nthHealthy(k, mask, len(c.shards))].Query(stmt)
}

// Stats aggregates every shard's counters (the Shards field carries the
// per-shard breakdown, index = shard id) and attaches broadcast-write
// latency. Like Server.Stats it is collection-lock-free.
func (c *Coordinator) Stats() serve.Stats {
	agg := serve.Stats{UptimeSeconds: time.Since(c.start).Seconds()}
	agg.Shards = make([]serve.Stats, len(c.shards))
	mask := c.quar.mask.Load()
	health := &serve.HealthInfo{
		State:       serve.StateHealthy,
		Quarantines: c.quar.quarantines.Load(),
		Repairs:     c.quar.repairs.Load(),
		Panics:      serve.PanicsTotal(),
	}
	for i, s := range c.shards {
		st := s.Stats()
		if mask&maskBit(i) != 0 {
			// Coordinator-level state overrides the shard's own view.
			q := *st.Health
			q.State = serve.StateQuarantined
			c.quar.mu.Lock()
			if info := c.quar.info[i]; info != nil {
				q.Reason = info.reason
				q.SinceUnix = info.since.Unix()
			}
			c.quar.mu.Unlock()
			st.Health = &q
			health.QuarantinedShards = append(health.QuarantinedShards, i)
		} else if st.Health != nil && st.Health.State == serve.StateDegraded {
			health.DegradedShards = append(health.DegradedShards, i)
		}
		if st.Health != nil {
			health.Recoveries += st.Health.Recoveries
			health.UnjournaledTail += st.Health.UnjournaledTail
			health.TailDropped += st.Health.TailDropped
		}
		agg.Shards[i] = st
		agg.Requests += st.Requests
		agg.Sessions += st.Sessions
		agg.Events += st.Events
		if st.Epoch > agg.Epoch {
			agg.Epoch = st.Epoch
		}
		if st.Rules > agg.Rules {
			agg.Rules = st.Rules
		}
		agg.Cache = agg.Cache.Merge(st.Cache)
		agg.Plans = agg.Plans.Merge(st.Plans)
		agg.Memberships = agg.Memberships.Merge(st.Memberships)
		agg.Latency = agg.Latency.Merge(st.Latency)
		if st.Subs != nil {
			merged := st.Subs.Merge(subsOrZero(agg.Subs))
			agg.Subs = &merged
		}
		if st.Journal != nil {
			merged := st.Journal.Merge(journalOrZero(agg.Journal))
			agg.Journal = &merged
		}
		// The hot-path counters are process-global (one scratch pool, one
		// set of atomics across all shards); summing per-shard copies would
		// multiply them by N. Report them once on the aggregate.
		agg.Shards[i].HotPath = nil
	}
	hp := contextrank.ReadHotPathStats()
	agg.HotPath = &hp
	b := &serve.BroadcastStats{Writes: c.bcastWrites.Load()}
	if b.Writes > 0 {
		b.MeanMicros = float64(c.bcastSumNs.Load()) / 1e3 / float64(b.Writes)
		b.MaxMicros = float64(c.bcastMaxNs.Load()) / 1e3
	}
	agg.Broadcast = b
	if c.journals != nil {
		agg.Checkpoints = &serve.CheckpointStats{
			Count:              c.ckptCount.Load(),
			Failures:           c.ckptFailures.Load(),
			LastUnix:           c.ckptLastUnix.Load(),
			LastDurationMicros: float64(c.ckptLastDurUs.Load()),
			LastSeq:            c.ckptLastSeq.Load(),
		}
	}
	switch {
	case len(health.QuarantinedShards) > 0:
		health.State = serve.StateQuarantined
	case len(health.DegradedShards) > 0:
		health.State = serve.StateDegraded
	}
	agg.Health = health
	agg.Recovery = c.recovery.Load()
	return agg
}
