// Package shard is the durable composition of the serving layer: a
// Coordinator wraps one serve.Server — one contextrank.System, session
// manager, rank cache and facade lock for the whole process — and owns
// what makes it crash-safe: the write-ahead journal, checkpoints and
// boot-time recovery. The package keeps its name and its shard-shaped
// surface (New takes a count, Stats reports one shard entry) because the
// benchmark harness and older data directories speak it: a WAL generation
// or checkpoint written by a build that kept one replica per shard is read
// into the one replica (see Recover and RestoreBuilder). DESIGN.md §3.5
// has the architecture discussion.
package shard

import (
	"fmt"
	"sync/atomic"
	"time"

	contextrank "repro"
	"repro/internal/faultinject"
	"repro/internal/serve"
	"repro/internal/serve/journal"
)

// Coordinator serves through one replica. It implements serve.Backend, so
// serve.NewHandlerFor exposes the identical HTTP API over it.
type Coordinator struct {
	// Mutators are serve.Backend's typed write methods, record builders
	// over Apply — the same ones serve.Server embeds.
	serve.Mutators

	srv *serve.Server

	// wal is the journal opened by Recover (nil when the coordinator runs
	// without durability). Owned here for CloseJournals; appends go
	// through the server.
	wal *journal.Journal
	// journalGen is the generation id of the open journal ("" without
	// durability). Snapshot manifests record it so recovery can pair
	// checkpoint coverage with the right WAL file.
	journalGen string
	// fs is the filesystem seam the journal was opened with (OSFS
	// outside fault-injection runs); manifest switches route through it
	// so injected rename/write faults reach them too.
	fs journal.FS

	// chaos is the optional fault injector for the rank path (nil =
	// disabled; one atomic load per rank).
	chaos atomic.Pointer[faultinject.Injector]

	// Vocabulary-write latency: apply-to-ack wall time per write.
	vocabWrites atomic.Int64
	vocabSumNs  atomic.Int64
	vocabMaxNs  atomic.Int64

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

// New builds a coordinator over one replica, whatever n ≥ 1 asks for:
// build(0) constructs its System (e.g. preloading a dataset, or restoring
// a snapshot) and is called once.
func New(n int, build func(shard int) (*contextrank.System, error), opts serve.Options) (*Coordinator, error) {
	if n <= 0 {
		return nil, fmt.Errorf("shard: need at least 1 shard, got %d", n)
	}
	sys, err := build(0)
	if err != nil {
		return nil, fmt.Errorf("shard: building the replica: %w", err)
	}
	c := &Coordinator{srv: serve.NewServer(sys, opts)}
	c.Mutators = serve.MutatorsOver(c)
	return c, nil
}

// Shard returns the replica's server, for direct (test/diagnostic)
// access; every index names it.
func (c *Coordinator) Shard(int) *serve.Server { return c.srv }

// ShardFor returns the shard index serving the given user: 0, the one
// replica.
func (c *Coordinator) ShardFor(string) int { return 0 }

// SetFaultInjector attaches a fault injector to the rank path (point
// rank.serve). Nil detaches. The disabled cost is one atomic pointer load
// per rank.
func (c *Coordinator) SetFaultInjector(in *faultinject.Injector) { c.chaos.Store(in) }

// fireRank fires the rank fault point.
func (c *Coordinator) fireRank() error {
	if in := c.chaos.Load(); in != nil {
		return in.Fire(faultinject.RankServe, 0)
	}
	return nil
}

// Rank ranks through the replica after the rank fault point.
func (c *Coordinator) Rank(user, target string, opts contextrank.RankOptions) ([]contextrank.Result, serve.RankMeta, error) {
	if err := c.fireRank(); err != nil {
		return nil, serve.RankMeta{}, err
	}
	return c.srv.Rank(user, target, opts)
}

// RankBatch ranks the whole batch through the replica — one consistent
// snapshot and one compiled rank plan for every item.
func (c *Coordinator) RankBatch(user string, alg contextrank.Algorithm, items []serve.RankItem) ([]serve.RankItemResult, serve.RankMeta, error) {
	if err := c.fireRank(); err != nil {
		return nil, serve.RankMeta{}, err
	}
	return c.srv.RankBatch(user, alg, items)
}

// SessionInfo reads the user's session.
func (c *Coordinator) SessionInfo(user string) ([]serve.Measurement, string, bool) {
	return c.srv.SessionInfo(user)
}

// Apply is the coordinator's one mutation entry: the replica's Apply,
// with a vocabulary write's apply-to-ack time recorded for Stats.
func (c *Coordinator) Apply(rec journal.Record) (serve.Applied, error) {
	if !rec.Op.IsVocab() {
		return c.srv.Apply(rec)
	}
	started := time.Now()
	out, err := c.srv.Apply(rec)
	ns := int64(time.Since(started))
	c.vocabWrites.Add(1)
	c.vocabSumNs.Add(ns)
	for {
		cur := c.vocabMaxNs.Load()
		if ns <= cur || c.vocabMaxNs.CompareAndSwap(cur, ns) {
			break
		}
	}
	return out, err
}

// Subscriptions lists the replica's subscriptions.
func (c *Coordinator) Subscriptions() []serve.SubscriptionInfo { return c.srv.Subscriptions() }

// SubscriptionStream attaches the event consumer to a subscription.
func (c *Coordinator) SubscriptionStream(id string) (*serve.SubStream, error) {
	return c.srv.SubscriptionStream(id)
}

// Rules snapshots the registered rules.
func (c *Coordinator) Rules() []contextrank.Rule { return c.srv.Rules() }

// Query serves a read-only SELECT.
func (c *Coordinator) Query(stmt string) (*contextrank.QueryResult, error) { return c.srv.Query(stmt) }

// Stats is the replica's counters with the coordinator's own attached:
// the one-entry Shards breakdown, vocabulary-write latency (Broadcast,
// never nil), checkpoints, recovery and the process-wide health block.
// Like Server.Stats it is collection-lock-free.
func (c *Coordinator) Stats() serve.Stats {
	st := c.srv.Stats()
	one := st
	// The hot-path counters are process-global; they are reported once,
	// on the aggregate.
	one.HotPath = nil
	st.Shards = []serve.Stats{one}
	health := &serve.HealthInfo{State: serve.StateHealthy, Panics: serve.PanicsTotal()}
	if h := one.Health; h != nil {
		health.State = h.State
		health.Recoveries = h.Recoveries
		health.UnjournaledTail = h.UnjournaledTail
		health.TailDropped = h.TailDropped
		if h.State == serve.StateDegraded {
			health.DegradedShards = []int{0}
		}
	}
	st.Health = health
	b := &serve.BroadcastStats{Writes: c.vocabWrites.Load()}
	if b.Writes > 0 {
		b.MeanMicros = float64(c.vocabSumNs.Load()) / 1e3 / float64(b.Writes)
		b.MaxMicros = float64(c.vocabMaxNs.Load()) / 1e3
	}
	st.Broadcast = b
	if c.wal != nil {
		st.Checkpoints = &serve.CheckpointStats{
			Count:              c.ckptCount.Load(),
			Failures:           c.ckptFailures.Load(),
			LastUnix:           c.ckptLastUnix.Load(),
			LastDurationMicros: float64(c.ckptLastDurUs.Load()),
			LastSeq:            c.ckptLastSeq.Load(),
		}
	}
	st.Recovery = c.recovery.Load()
	return st
}
