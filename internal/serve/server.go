package serve

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	contextrank "repro"
	"repro/internal/faultinject"
	"repro/internal/serve/journal"
)

// Options tunes a Server.
type Options struct {
	// CacheSize is the rank-result LRU capacity (entries). 0 means
	// DefaultCacheSize; negative disables caching entirely.
	CacheSize int
	// DegradeOnDiskError arms read-only degraded mode: when an attached
	// journal sticky-fails, mutations are rejected with ErrDegraded
	// (ranks keep serving from memory) instead of each returning its own
	// "applied but not journaled" error, and ProbeDisk can re-arm the
	// WAL when the disk recovers. Off, a journal error stays a per-call
	// error and only a restart clears the sticky state.
	DegradeOnDiskError bool
}

// Backend is the serving surface the HTTP handler (and the load
// generators) speak to. *Server implements it; daemon.Daemon embeds a
// Server with its journal, checkpoints and recovery and overrides only
// Stats, to add the durable blocks. The handler is written against this
// interface so both serve the identical HTTP API.
type Backend interface {
	// Rank ranks target for user through the backend's cache(s).
	Rank(user, target string, opts contextrank.RankOptions) ([]contextrank.Result, RankMeta, error)
	// Declare registers concepts, roles and subconcept axioms (a
	// vocabulary write).
	Declare(concepts, roles []string, subs []SubConceptDecl) (int64, error)
	// Assert adds (possibly uncertain) concept/role assertions (also a
	// vocabulary write).
	Assert(concepts []ConceptAssertion, roles []RoleAssertion) (int64, error)
	// Rules snapshots the registered preference rules.
	Rules() []contextrank.Rule
	// AddRules parses and registers scored preference rules, returning
	// the added rule names.
	AddRules(texts []string) ([]string, int64, error)
	// RemoveRule deletes a rule by name.
	RemoveRule(name string) (int64, error)
	// RankBatch ranks several targets/candidate lists for one user in a
	// single call: one consistent snapshot, one compiled rank plan (for
	// the factorized algorithm) shared by every item.
	RankBatch(user string, algorithm contextrank.Algorithm, items []RankItem) ([]RankItemResult, RankMeta, error)
	// SetSession replaces the user's session context.
	SetSession(user string, ms []Measurement) (string, error)
	// SessionInfo returns the user's measurements and fingerprint.
	SessionInfo(user string) ([]Measurement, string, bool)
	// DropSession ends the user's session.
	DropSession(user string) error
	// Query runs a read-only SELECT.
	Query(stmt string) (*contextrank.QueryResult, error)
	// Exec runs a mutating SQL statement.
	Exec(stmt string) (*contextrank.QueryResult, int64, error)
	// Subscribe registers (or, on an existing id, replaces) a standing
	// rank subscription: the backend re-evaluates the request after every
	// relevant mutation and pushes score deltas to the subscription's
	// event stream. An empty id mints one. Journaled like a session write.
	Subscribe(id string, spec SubscriptionSpec) (SubscriptionInfo, error)
	// Unsubscribe removes a subscription and ends its stream, reporting
	// whether it existed.
	Unsubscribe(id string) (bool, error)
	// Subscriptions lists the registered subscriptions.
	Subscriptions() []SubscriptionInfo
	// SubscriptionStream attaches the (single) event consumer to a
	// subscription, returning its opening snapshot and live channel.
	SubscriptionStream(id string) (*SubStream, error)
	// Stats snapshots the backend's observable state.
	Stats() Stats
}

// The declare/assert item types are the journal's wire types: a record
// is the command, so the typed mutators pass their arguments through
// without a conversion loop.
type (
	// SubConceptDecl is one axiom sub ⊑ super in a Declare call: checked and
	// journaled, and reasoned over by nothing.
	SubConceptDecl = journal.SubDecl
	// ConceptAssertion is one concept-membership assertion in an Assert call.
	ConceptAssertion = journal.ConceptAssert
	// RoleAssertion is one role-tuple assertion in an Assert call.
	RoleAssertion = journal.RoleAssert
)

// Server is the complete serving layer: facade + sessions + rank cache +
// statistics. It is safe for concurrent use by any number of goroutines.
type Server struct {
	facade   *Facade
	sessions *Sessions
	cache    *rankCache // nil when caching is disabled
	plans    *planCache
	latency  *latencyRecorder
	health   *diskHealth
	subs     *subRegistry
	start    time.Time
	requests atomic.Int64
	// wal, when attached, makes every acknowledged mutation crash-durable:
	// Apply submits the record inside the critical section that applied it
	// and waits for the group-commit fsync after the locks are released.
	// The rank path never touches it. Atomic so the lock-free Stats scrape
	// can read it.
	wal atomic.Pointer[journal.Journal]
	// chaos is the optional fault injector of the rank path (point
	// rank.serve, fired by Rank and RankBatch); nil = disabled, one atomic
	// load per rank.
	chaos atomic.Pointer[faultinject.Injector]
	// vocab is the vocabulary writes' apply-to-ack latency (see Apply).
	vocab vocabTimer
}

var _ Backend = (*Server)(nil)

// NewServer wraps the system for serving. The caller must route all
// subsequent access through the returned server (or its Facade).
func NewServer(sys *contextrank.System, opts Options) *Server {
	srv := &Server{
		facade:  NewFacade(sys),
		plans:   newPlanCache(),
		latency: &latencyRecorder{},
		health:  &diskHealth{enabled: opts.DegradeOnDiskError},
		subs:    newSubRegistry(),
		start:   time.Now(),
	}
	srv.sessions = newSessions(srv.facade)
	if opts.CacheSize >= 0 {
		srv.cache = newRankCache(opts.CacheSize)
	}
	return srv
}

// Facade returns the locking facade for direct (uncached) operations.
func (s *Server) Facade() *Facade { return s.facade }

// AttachJournal arms the write-ahead log: from now on every mutation
// Apply acknowledges — session, vocabulary/data and subscription writes
// alike — is durable (fsynced via group commit) first. Attach before
// serving traffic; attaching replaces any previous journal without
// closing it. The server does not own the journal's lifecycle; the
// caller (daemon.Daemon.Recover, or a test) closes it.
func (s *Server) AttachJournal(j *journal.Journal) { s.wal.Store(j) }

// SetFaultInjector attaches a fault injector to the rank path: point
// rank.serve fails a Rank or RankBatch call before it ranks. The
// subscription evaluator's re-ranks never fire it. Nil detaches.
func (s *Server) SetFaultInjector(in *faultinject.Injector) { s.chaos.Store(in) }

// rankFault fires the rank.serve fault point.
func (s *Server) rankFault() error {
	if in := s.chaos.Load(); in != nil {
		return in.Fire(faultinject.RankServe, 0)
	}
	return nil
}

// Close stops the server's background work — the subscription evaluator
// — and waits for it to exit. It is idempotent. Calls made after Close
// are still served, but no subscription is re-evaluated; the attached
// journal is the caller's to close.
func (s *Server) Close() {
	// Spending the once first means no evaluator starts after this, and
	// one starting now has done its running.Add before Do returns.
	s.subs.once.Do(func() {})
	s.subs.closeOnce.Do(func() { close(s.subs.done) })
	s.subs.running.Wait()
}

// RankMeta describes how a Rank call was served.
type RankMeta struct {
	Cached  bool          // served from the rank cache
	Epoch   int64         // facade epoch the result corresponds to
	Shard   int           // shard that served the call: always 0, the one replica
	Elapsed time.Duration // wall time of this call

	// enc is the served ranking's stored results encoding (see ranked);
	// nil when the ranking was not filed in the rank cache.
	enc *atomic.Pointer[[]byte]
}

// stateVersion is the state a user's ranking is valid for — the facade epoch
// and the user's applied session fingerprint. Two ranks of one request at one
// version score the same, so it keys the rank cache and is half of what a
// filed ranking stands on (see ranked; DESIGN §3 "What a served ranking
// stands on" says who moves each part and what it covers).
type stateVersion struct {
	epoch int64
	fp    string
}

// version reads the user's current state version and applied generation — the
// only place the epoch is paired with what the user's last apply published.
// The generation is not part of the version: a re-apply of identical
// measurements renames the user's context events, which a compiled plan holds
// (see planFor), but cannot move their scores. Both reads are lock-free
// (a session apply holds its mutex across the facade write lock, so taking
// that mutex under the read lock would deadlock) and both only change under
// the facade write lock: read while holding the read lock they are exactly
// the state being read; read outside it they are a guess the read path
// re-checks (see rankMisses).
func (s *Server) version(user string) (v stateVersion, generation int64) {
	applied := s.sessions.appliedContext(user)
	return stateVersion{epoch: s.facade.Epoch(), fp: applied.fingerprint}, applied.generation
}

// rankReq is one ranking task as the read path carries it: a target or a
// candidate list, and the options it ranks under.
type rankReq struct {
	target     string
	candidates []string
	opts       contextrank.RankOptions
}

// Rank ranks target for user through the cache: a hit under an unchanged
// version is O(1), a miss ranks through rankMisses.
func (s *Server) Rank(user, target string, opts contextrank.RankOptions) ([]contextrank.Result, RankMeta, error) {
	if err := s.rankFault(); err != nil {
		return nil, RankMeta{}, err
	}
	r, meta, err := s.rank(user, rankReq{target: target, opts: opts})
	return r.res, meta, err
}

// rank is Rank for any one request, returning the ranking with what it
// stands on (on an error, the version it failed at): the subscription
// evaluator keeps that to decide its next skip.
func (s *Server) rank(user string, rq rankReq) (ranked, RankMeta, error) {
	started := time.Now()
	s.requests.Add(1)
	var (
		r      ranked
		cached bool
		err    error
	)
	if s.cache != nil && rq.candidates == nil {
		now, _ := s.version(user)
		r, cached = s.cache.lookup(rankKey(user, rq.target, now, rq.opts), now)
	}
	if !cached {
		out := make([]RankItemResult, 1)
		if r.v, err = s.rankMisses(user, []rankReq{rq}, out); err == nil {
			r, err = out[0].ranked, out[0].Err
		}
	}
	elapsed := time.Since(started)
	if err == nil {
		s.latency.observe(elapsed)
	}
	return r, RankMeta{Cached: cached, Epoch: r.v.epoch, Elapsed: elapsed, enc: r.enc}, err
}

// rankMisses is the one place the server ranks: the misses of Rank, of
// RankBatch and of a subscription evaluation end here. Under one facade
// read-lock hold — one consistent snapshot — it re-reads the user's version,
// fetches the user's compiled plan once (the factorized algorithm; naive
// ranks without one), ranks every req whose out slot is not
// already served from the cache, and files each target result in the rank
// cache under the version observed *here*, never under the caller's pre-read
// one: fingerprints round-trip (context X → Y → X yields the same key again
// with no epoch bump), so a Y-context result filed under the stale X key
// would later be served as a hit for a genuine X request. Candidate-list
// results are not cached (their keys would have unbounded cardinality). All
// reqs of one call share one algorithm.
//
// A failing req fails its own out slot; the returned error is the shared
// plan failing to compile (e.g. a rule references vocabulary mid-migration),
// which no req could have survived. The returned version is the one observed
// under the lock — what the results are valid for.
func (s *Server) rankMisses(user string, reqs []rankReq, out []RankItemResult) (v stateVersion, err error) {
	err = s.facade.WithRead(func(sys *contextrank.System) error {
		var generation int64
		v, generation = s.version(user)
		var plan *contextrank.RankPlan
		if alg := reqs[0].opts.Algorithm; alg == "" || alg == contextrank.AlgorithmFactorized {
			var perr error
			if plan, perr = s.planFor(sys, user, generation); perr != nil {
				return perr
			}
		}
		for i, rq := range reqs {
			if out[i].Cached {
				continue
			}
			r := ranked{v: v}
			var rerr error
			switch {
			case rq.candidates != nil:
				r.res, rerr = sys.RankCandidates(user, plan, rq.candidates, rq.opts)
			case rq.target == "":
				rerr = fmt.Errorf("serve: batch item needs a target or a candidate list")
			default:
				r.res, r.members, rerr = sys.RankTarget(user, plan, rq.target, rq.opts)
			}
			if rerr == nil && rq.candidates == nil && s.cache != nil {
				r.enc = new(atomic.Pointer[[]byte])
				s.cache.put(rankKey(user, rq.target, v, rq.opts), r)
			}
			out[i] = RankItemResult{Results: r.res, Err: rerr, ranked: r}
		}
		return nil
	})
	return v, err
}

// planFor returns the user's compiled rank plan for the state being read.
// Must run under the facade read lock with the generation version returned
// under it: it, the context generation and every table version then all stand
// still, so a plan found current can never be stale for the snapshot being
// read. Whether the plan enumerates footprint clusters or scores per candidate
// (see contextrank.CompileRankPlan) is its own business; both are cached
// alike.
//
// The cache holds one plan per user, filed under the context generation and
// the user's generation its context half was resolved at. It is a hit while
// both still hold — other users' uncoupled applies and the asserts no rule's
// context reads move neither — and no table a rule's preference reads has
// been written since (plan.Current). Anything else is a miss served by a
// compile that takes every preference membership from the loader's memo, so
// after a vocabulary write the first user's compile queries the written views
// and every other user's shares the answer. A miss whose two generations
// still hold keeps the plan's context half (contextrank.RefreshRankPlan): it
// resolves none of the user's rule contexts, and pays only for the handles,
// the shared document side and the partition.
func (s *Server) planFor(sys *contextrank.System, user string, generation int64) (*contextrank.RankPlan, error) {
	contextGen := s.facade.contextGeneration()
	prev, ok := s.plans.get(user)
	keep := ok && prev.contextGen == contextGen && prev.generation == generation
	if keep && prev.plan.Current() {
		s.plans.hits.Add(1)
		return prev.plan, nil
	}
	s.plans.misses.Add(1)
	var (
		plan *contextrank.RankPlan
		err  error
	)
	if keep {
		plan, err = sys.RefreshRankPlan(prev.plan)
	} else {
		plan, err = sys.CompileRankPlan(user)
	}
	if err != nil {
		return nil, err
	}
	if ok {
		s.plans.refreshed.Add(1)
	}
	s.plans.put(user, planEntry{contextGen: contextGen, generation: generation, plan: plan})
	return plan, nil
}

// RankItem is one ranking task inside a RankBatch call or a subscription:
// either a target concept expression or an explicit candidate list, plus the
// per-item result shaping.
type RankItem struct {
	Target     string   // DL concept expression; empty when Candidates is set
	Candidates []string // explicit candidate ids (the §5 query-integration shape)
	Threshold  float64
	Limit      int
	TopK       int // keep only the best k (0 = all); see RankOptions.TopK
	Explain    bool
}

// options shapes the item as RankOptions under the batch's algorithm.
func (it RankItem) options(alg contextrank.Algorithm) contextrank.RankOptions {
	return contextrank.RankOptions{
		Algorithm: alg,
		Threshold: it.Threshold,
		Limit:     it.Limit,
		TopK:      it.TopK,
		Explain:   it.Explain,
	}
}

// RankItemResult is one batch item's outcome. Err is per-item: a bad
// target expression fails that item, not the batch.
type RankItemResult struct {
	Results []contextrank.Result
	Cached  bool
	Err     error
	// ranked is Results with what they stand on, as rankMisses ranked or the
	// cache served them.
	ranked ranked
}

// RankBatch ranks every item for one user in a single call. Target items
// are served from the rank-result cache when possible; all misses share
// one rankMisses call — one facade read-lock hold and, for the factorized
// algorithm, one compiled rank plan, so a batch of B targets or candidate
// lists pays the per-(user, rules, context) compilation once instead of B
// times. Candidate-list items bypass the result cache and always rank.
func (s *Server) RankBatch(user string, alg contextrank.Algorithm, items []RankItem) ([]RankItemResult, RankMeta, error) {
	started := time.Now()
	err := s.rankFault()
	switch {
	case err != nil:
	case user == "":
		err = fmt.Errorf("serve: batch rank needs a user")
	case len(items) == 0:
		err = fmt.Errorf("serve: batch rank needs at least one item")
	case !contextrank.KnownAlgorithm(alg):
		err = fmt.Errorf("serve: unknown algorithm %q", alg)
	}
	if err != nil {
		return nil, RankMeta{}, err
	}
	s.requests.Add(int64(len(items)))

	v, _ := s.version(user)
	reqs := make([]rankReq, len(items))
	out := make([]RankItemResult, len(items))
	misses := 0
	for i, it := range items {
		reqs[i] = rankReq{target: it.Target, candidates: it.Candidates, opts: it.options(alg)}
		if it.Candidates == nil && it.Target != "" && s.cache != nil {
			if r, ok := s.cache.lookup(rankKey(user, it.Target, v, reqs[i].opts), v); ok {
				out[i] = RankItemResult{Results: r.res, Cached: true, ranked: r}
				continue
			}
		}
		misses++
	}

	meta := RankMeta{Cached: misses == 0}
	if misses > 0 {
		v, err = s.rankMisses(user, reqs, out)
	}
	meta.Epoch = v.epoch
	if err != nil {
		return nil, meta, err
	}
	meta.Elapsed = time.Since(started)
	s.latency.observe(meta.Elapsed)
	return out, meta, nil
}

// --- Backend read operations ----------------------------------------------
// (The write half of Backend is the typed mutators over Apply.)

// Rules snapshots the registered preference rules.
func (s *Server) Rules() []contextrank.Rule { return s.facade.Rules() }

// SessionInfo returns the user's measurements and fingerprint.
func (s *Server) SessionInfo(user string) ([]Measurement, string, bool) {
	return s.sessions.Snapshot(user)
}

// Query runs a read-only SELECT through the facade.
func (s *Server) Query(stmt string) (*contextrank.QueryResult, error) {
	return s.facade.Query(stmt)
}

// CheckpointDump dumps the wrapped system as JSON to w under the facade
// write lock — a consistent cut — and returns the journal sequence number
// the snapshot covers: every vocabulary record with Seq <= the returned
// value is reflected in the dump, every later one is not. The cut is exact
// because Apply submits every vocabulary record, and every session record
// that changes state, inside that lock; session and subscription records
// are not in the snapshot, and checkpoints keep every live one. It takes no
// session lock and moves no epoch, fingerprint or applied generation.
// The snapshot carries data, vocabulary, views and rules but no session
// context (System.SaveSnapshot leaves it out), so a server restored from it
// accepts session applies immediately. A server without a journal returns
// seq 0.
func (s *Server) CheckpointDump(w io.Writer) (uint64, error) {
	f := s.facade
	f.mu.Lock()
	defer f.mu.Unlock()
	var seq uint64
	if j := s.wal.Load(); j != nil {
		seq = j.Seq()
	}
	return seq, f.sys.SaveSnapshot(w)
}

// --- statistics ------------------------------------------------------------

// Stats is the server's observable state, shaped for the /v1/stats
// endpoint and the load generator.
type Stats struct {
	Epoch         int64   `json:"epoch"`
	Sessions      int     `json:"sessions"`
	Rules         int     `json:"rules"`
	Requests      int64   `json:"rank_requests"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Events is the number of basic events currently declared in the
	// system's event space. Under session churn it stays bounded by the
	// live context vocabulary (each context apply retires the previous
	// snapshot's events) — a growing value here means an event leak.
	Events int        `json:"events"`
	Cache  CacheStats `json:"cache"`
	// Plans is the compiled-rank-plan cache: one entry per user, shared by
	// every target and batch item that user ranks; Refreshed counts the
	// misses that replaced a cached plan gone stale — the user's context, the
	// vocabulary or the rules moved under it.
	Plans CacheStats `json:"plan_cache"`
	// Memberships is the loader's concept-membership memo: whole evaluations
	// run, look-ups it answered without one, handles held, handles a DDL
	// dropped.
	Memberships contextrank.MembershipStats `json:"memberships"`
	Latency     LatencyStats                `json:"latency"`
	// Health is the failure-domain state: healthy or degraded (journal
	// down, mutations rejected), plus the counters behind it.
	Health *HealthInfo `json:"health,omitempty"`
	// Journal is the write-ahead log (appends, group-commit batches,
	// fsyncs, compactions, live/vocab/total records, bytes since the last
	// checkpoint); nil when the server runs without durability.
	Journal *journal.Stats `json:"journal,omitempty"`
	// Checkpoints describes background checkpoint activity; only a
	// daemon.Daemon with a journal fills it (aggregate only, not per
	// shard).
	Checkpoints *CheckpointStats `json:"checkpoints,omitempty"`
	// Recovery describes what boot-time WAL replay restored; filled once
	// at boot by daemon.Daemon.Recover (aggregate only).
	Recovery *RecoveryStats `json:"recovery,omitempty"`
	// Broadcast describes vocabulary writes; only daemon.Daemon fills it,
	// from VocabWrites.
	Broadcast *BroadcastStats `json:"broadcast,omitempty"`
	// Subs is the standing-subscription subsystem: registered
	// subscriptions, pushed events, evaluator work and skip counts.
	Subs *SubscriptionStats `json:"subscriptions,omitempty"`
	// HotPath is the rank hot path's scratch-pool and document-
	// distribution-cache effectiveness. The counters are process-global
	// (see contextrank.HotPathStats), so daemon.Daemon reports them once
	// on the aggregate and leaves its shard entry's nil.
	HotPath *contextrank.HotPathStats `json:"hot_path,omitempty"`
	// Shards is the per-shard breakdown (index = shard id); only
	// daemon.Daemon fills it, with one entry: its replica, whose counters
	// the outer struct also carries.
	Shards []Stats `json:"shards,omitempty"`
}

// BroadcastStats describes the vocabulary-write path (declare, assert,
// rules, exec): how many writes were applied and their apply-to-ack wall
// time. The name is kept from builds that applied each write to one
// replica per shard.
type BroadcastStats struct {
	Writes     int64   `json:"writes"`
	MeanMicros float64 `json:"mean_us"`
	MaxMicros  float64 `json:"max_us"`
}

// vocabTimer accumulates vocabulary-write latencies, lock-free.
type vocabTimer struct {
	writes, sumNs, maxNs atomic.Int64
}

// since records one write that started at started.
func (t *vocabTimer) since(started time.Time) {
	ns := int64(time.Since(started))
	t.writes.Add(1)
	t.sumNs.Add(ns)
	for cur := t.maxNs.Load(); ns > cur && !t.maxNs.CompareAndSwap(cur, ns); cur = t.maxNs.Load() {
	}
}

// VocabWrites reports the live vocabulary writes Apply has handled,
// refused ones included, and their apply-to-ack wall time (the Broadcast
// block of a daemon's Stats).
func (s *Server) VocabWrites() *BroadcastStats {
	b := &BroadcastStats{Writes: s.vocab.writes.Load()}
	if b.Writes > 0 {
		b.MeanMicros = float64(s.vocab.sumNs.Load()) / 1e3 / float64(b.Writes)
		b.MaxMicros = float64(s.vocab.maxNs.Load()) / 1e3
	}
	return b
}

// CheckpointStats describes background checkpoint activity: full-state
// snapshots that truncate the WAL (see daemon.Daemon.Checkpoint).
type CheckpointStats struct {
	// Count / Failures count completed and failed checkpoint attempts.
	Count    int64 `json:"count"`
	Failures int64 `json:"failures"`
	// LastUnix is when the last successful checkpoint finished (unix
	// seconds; 0 before the first).
	LastUnix int64 `json:"last_unix,omitempty"`
	// LastDurationMicros is the wall time of the last successful
	// checkpoint (dump + rename + WAL truncation).
	LastDurationMicros float64 `json:"last_duration_us,omitempty"`
	// LastSeq is the highest journal sequence the last checkpoint
	// covered.
	LastSeq uint64 `json:"last_seq,omitempty"`
}

// RecoveryStats describes what a boot-time WAL replay restored. The
// per-op counts are applied records; Skipped* are records correctly not
// applied (already covered by the restored checkpoint, or a copy of a
// vocabulary write another file of a per-shard generation already
// replayed).
type RecoveryStats struct {
	// Files is how many journal files were replayed.
	Files int `json:"files"`
	// Records is the total records read across those files.
	Records int `json:"records"`
	// Users is the number of live sessions restored; Drops counts
	// journaled session drops replayed.
	Users int `json:"users"`
	Drops int `json:"drops"`
	// Declares/Asserts/RuleAdds/RuleRemoves/Execs count vocabulary
	// records applied.
	Declares    int `json:"declares"`
	Asserts     int `json:"asserts"`
	RuleAdds    int `json:"rule_adds"`
	RuleRemoves int `json:"rule_removes"`
	Execs       int `json:"execs"`
	// SkippedCheckpoint counts vocabulary records whose effect the
	// restored snapshot already contained (Seq <= the manifest's
	// checkpoint_seq for that file, same journal generation).
	SkippedCheckpoint int `json:"skipped_checkpoint"`
	// SkippedDuplicate counts vocabulary records deduplicated by BID: a
	// generation written with one replica per shard holds a copy in every
	// shard's WAL, and exactly one is applied.
	SkippedDuplicate int `json:"skipped_duplicate"`
	// Subscribes/Unsubscribes count standing-subscription records
	// replayed: journaled subscriptions re-register at boot, so a client's
	// push stream resumes after a crash without re-subscribing.
	Subscribes   int `json:"subscribes"`
	Unsubscribes int `json:"unsubscribes"`
	// Failed counts records whose re-apply errored; they are preserved in
	// the new journal generation (marked checkpoint-exempt) instead of
	// being dropped.
	Failed int `json:"failed"`
	// BadFiles counts journal files skipped wholesale (bad magic /
	// unreadable); TornFiles counts files that ended in a torn tail.
	BadFiles  int `json:"bad_files"`
	TornFiles int `json:"torn_files"`
	// FingerprintMismatches counts replayed sessions whose recomputed
	// fingerprint differed from the journaled one (should be zero).
	FingerprintMismatches int `json:"fingerprint_mismatches"`
}

// VocabApplied is the number of vocabulary records applied during replay.
func (rs RecoveryStats) VocabApplied() int {
	return rs.Declares + rs.Asserts + rs.RuleAdds + rs.RuleRemoves + rs.Execs
}

// Stats snapshots the server counters. The collection path is lock-free:
// it reads atomics (epoch, request/session counters, cache counters, the
// latency ring) and internally synchronized component state (rule
// repository, event space) without ever taking the facade lock, the
// session mutex or the cache mutex — scraping /v1/stats during a long
// write (e.g. a checkpoint dump) returns immediately instead of
// queueing behind rank traffic. The snapshot is correspondingly not an
// atomic cut across counters, which monitoring does not need.
func (s *Server) Stats() Stats {
	st := Stats{
		Epoch:    s.facade.Epoch(),
		Sessions: s.sessions.Count(),
		// The repository serializes itself and its lock is never held
		// across rank work, so this cannot queue behind the facade.
		Rules:         s.facade.sys.Rules().Len(),
		Requests:      s.requests.Load(),
		UptimeSeconds: time.Since(s.start).Seconds(),
		// The space serializes its own reads, so no facade lock is needed.
		Events:  s.facade.sys.DB().Space().Len(),
		Latency: s.latency.snapshot(),
	}
	if s.cache != nil {
		st.Cache = s.cache.stats()
	}
	st.Plans = s.plans.stats()
	st.Memberships = s.facade.sys.Loader().MembershipStats()
	st.Health = s.health.healthInfo()
	if j := s.wal.Load(); j != nil {
		// Journal counters are atomics; reading them keeps the scrape
		// lock-free.
		js := j.Stats()
		st.Journal = &js
	}
	hp := contextrank.ReadHotPathStats()
	st.HotPath = &hp
	ss := s.subs.stats()
	st.Subs = &ss
	return st
}
